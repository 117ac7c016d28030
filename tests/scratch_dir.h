/**
 * @file
 * Per-process scratch directories for tests that write files.
 *
 * Two test processes running at once (ctest -j, or repeated copies of
 * one binary) share gtest's TempDir(). A directory named only after
 * the suite and test would be the same path in both, and each run's
 * setup and teardown would delete the other's files. The pid in the
 * name keeps every process to its own directory.
 */

#ifndef SIGCOMP_TESTS_SCRATCH_DIR_H_
#define SIGCOMP_TESTS_SCRATCH_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace sigcomp::test
{

/** TempDir()/<name>-<pid>: @p name's directory for this process. */
inline std::filesystem::path
scratchDir(const std::string &name)
{
    return std::filesystem::path(::testing::TempDir()) /
           (name + "-" + std::to_string(::getpid()));
}

} // namespace sigcomp::test

#endif // SIGCOMP_TESTS_SCRATCH_DIR_H_

/**
 * @file
 * ParallelExecutor unit tests: every index runs exactly once,
 * results are order-stable, exceptions propagate like a serial
 * loop's, the 1-thread executor degenerates to plain serial
 * execution, nested fan-outs do not deadlock, and the thread-count
 * parser refuses anything but digits in [0, 1024].
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"

namespace sigcomp
{
namespace
{

TEST(ParallelExecutor, DefaultThreadCountIsPositive)
{
    EXPECT_GE(ParallelExecutor::defaultThreadCount(), 1u);
    EXPECT_GE(ParallelExecutor::global().threadCount(), 1u);
}

TEST(ParallelExecutor, ZeroResolvesToDefault)
{
    ParallelExecutor exec(0);
    EXPECT_EQ(exec.threadCount(), ParallelExecutor::defaultThreadCount());
}

TEST(ParallelExecutor, ParseThreadCountIsStrict)
{
    // Only the parser: no executor is ever built from these values.
    for (const char *bad :
         {"-1", "4294967295", "1025", "abc", "4x", "", " 4", "+4"}) {
        unsigned v = 7;
        EXPECT_FALSE(ParallelExecutor::parseThreadCount(bad, &v)) << bad;
        EXPECT_EQ(v, 7u) << "untouched on failure: " << bad;
    }
    for (unsigned good : {0u, 1u, 1024u}) {
        unsigned v = 7;
        EXPECT_TRUE(ParallelExecutor::parseThreadCount(
            std::to_string(good), &v));
        EXPECT_EQ(v, good);
    }
}

TEST(ParallelExecutor, EveryIndexRunsExactlyOnce)
{
    constexpr std::size_t n = 1000;
    ParallelExecutor exec(4);
    std::vector<std::atomic<int>> hits(n);
    exec.parallelFor(n, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutor, EmptyJobIsANoop)
{
    ParallelExecutor exec(4);
    bool called = false;
    exec.parallelFor(0, [&](std::size_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(ParallelExecutor, ResultsAreOrderStable)
{
    constexpr std::size_t n = 500;
    ParallelExecutor exec(4);
    std::vector<std::size_t> out(n);
    exec.parallelFor(n, [&](std::size_t i) { out[i] = i * i; });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(out[i], i * i);
}

TEST(ParallelExecutor, SingleThreadRunsInIndexOrderOnCaller)
{
    ParallelExecutor exec(1);
    EXPECT_EQ(exec.threadCount(), 1u);
    const std::thread::id caller = std::this_thread::get_id();
    std::vector<std::size_t> order;
    exec.parallelFor(64, [&](std::size_t i) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        order.push_back(i);
    });
    ASSERT_EQ(order.size(), 64u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
}

TEST(ParallelExecutor, LowestIndexExceptionWins)
{
    ParallelExecutor exec(4);
    try {
        exec.parallelFor(100, [&](std::size_t i) {
            if (i == 3 || i == 7 || i == 90)
                throw std::runtime_error("boom at " + std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom at 3");
    }
}

TEST(ParallelExecutor, RemainingIndicesRunDespiteException)
{
    constexpr std::size_t n = 200;
    ParallelExecutor exec(4);
    std::vector<std::atomic<int>> hits(n);
    EXPECT_THROW(exec.parallelFor(n,
                                  [&](std::size_t i) {
                                      hits[i]++;
                                      if (i == 0)
                                          throw std::runtime_error("x");
                                  }),
                 std::runtime_error);
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutor, SerialPathPropagatesLowestIndexException)
{
    ParallelExecutor exec(1);
    std::vector<std::atomic<int>> hits(50);
    try {
        exec.parallelFor(50, [&](std::size_t i) {
            hits[i]++;
            if (i == 5 || i == 20)
                throw std::runtime_error("serial boom " +
                                         std::to_string(i));
        });
        FAIL() << "expected an exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "serial boom 5");
    }
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelExecutor, NestedFanoutDoesNotDeadlock)
{
    ParallelExecutor exec(4);
    std::atomic<int> inner_total{0};
    exec.parallelFor(8, [&](std::size_t) {
        // Runs inline on whichever thread claimed the outer index.
        ParallelExecutor::global().parallelFor(
            16, [&](std::size_t) { inner_total++; });
    });
    EXPECT_EQ(inner_total.load(), 8 * 16);
}

TEST(ParallelExecutor, BackToBackJobsReuseThePool)
{
    ParallelExecutor exec(3);
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> count{0};
        exec.parallelFor(37, [&](std::size_t) { count++; });
        EXPECT_EQ(count.load(), 37);
    }
}

TEST(ParallelExecutor, ManyMoreTasksThanThreads)
{
    ParallelExecutor exec(2);
    std::atomic<long> sum{0};
    exec.parallelFor(10000,
                     [&](std::size_t i) { sum += static_cast<long>(i); });
    EXPECT_EQ(sum.load(), 10000L * 9999L / 2);
}

} // namespace
} // namespace sigcomp

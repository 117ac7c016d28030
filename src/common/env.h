/**
 * @file
 * The filesystem seam: every byte the trace store reads from or
 * writes to disk goes through a sigcomp::Env (the LevelDB Env idiom).
 *
 * Before this seam the store called open/read/fopen/rename directly,
 * so its fail-soft claims could only be tested with hand-corrupted
 * files — never with faults injected at the syscall boundary, which
 * is where a long-running multi-tenant service actually meets
 * ENOSPC, EIO, torn writes and crashes mid-save. With the seam in
 * place, production code runs over the PosixEnv singleton (whole-file
 * private-copy reads, fsync-guarded writes) and the robustness tests run the SAME
 * store/session code over a deterministic FaultInjectingEnv
 * (common/fault_env.h) that injects every fault class on schedule.
 *
 * Every operation reports an EnvStatus whose fault class drives the
 * caller's recovery policy (see README "Failure model"):
 *
 *   Transient  (EINTR/EAGAIN/EIO/EBUSY)  → bounded retry + backoff
 *   NoSpace    (ENOSPC/EDQUOT/EFBIG)     → permanent: degrade writes
 *   ReadOnly   (EROFS/EACCES/EPERM)      → permanent: degrade writes
 *   NotFound   (ENOENT/ENOTDIR)          → ordinary miss, not a fault
 *   Crashed    (fault injection only)    → simulated process death
 *   Other                                → permanent
 *
 * Thread-safety: PosixEnv is stateless and safe from any number of
 * threads; Env implementations must tolerate concurrent calls (the
 * store is documented concurrency-safe and runs under TSan).
 */

#ifndef SIGCOMP_COMMON_ENV_H_
#define SIGCOMP_COMMON_ENV_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace sigcomp
{

/** Fault taxonomy of a failed Env operation (see file comment). */
enum class EnvFault : std::uint8_t
{
    None = 0,
    NotFound,  ///< ENOENT-class: a miss, not damage
    Transient, ///< EINTR/EAGAIN/EIO-class: a retry may succeed
    NoSpace,   ///< ENOSPC-class: permanent until an operator acts
    ReadOnly,  ///< EROFS/EACCES/EPERM-class: permanent
    Crashed,   ///< injected: the simulated process died mid-run
    Other,     ///< anything else: treated as permanent
};

/** Stable lowercase name of @p fault (logs, scripts, JSON). */
const char *envFaultName(EnvFault fault);

/** Outcome of one Env operation. */
struct EnvStatus
{
    EnvFault fault = EnvFault::None;
    std::string message;

    bool ok() const { return fault == EnvFault::None; }

    /** True when a bounded retry of the whole operation may succeed. */
    bool transient() const { return fault == EnvFault::Transient; }

    static EnvStatus good() { return EnvStatus{}; }

    static EnvStatus
    error(EnvFault f, std::string msg)
    {
        return EnvStatus{f, std::move(msg)};
    }
};

/**
 * Abstract filesystem interface. All paths are plain strings;
 * directory components are joined with '/'.
 */
class Env
{
  public:
    virtual ~Env() = default;

    /** The process-wide real-filesystem Env (stateless singleton). */
    static Env &posix();

    /**
     * Read-only whole-file view. PosixEnv reads the file into a
     * private anonymous mapping (returned to the system when the view
     * dies), so a concurrent in-place truncation of the file cannot
     * change or fault what the view's reader sees.
     */
    class FileView
    {
      public:
        virtual ~FileView() = default;
        virtual const std::uint8_t *data() const = 0;
        virtual std::size_t size() const = 0;
    };

    /** Sequential writer for one fresh file (truncates on create). */
    class WritableFile
    {
      public:
        virtual ~WritableFile() = default;
        virtual EnvStatus append(const void *data, std::size_t n) = 0;
        /** Flush file contents to stable storage (fsync). */
        virtual EnvStatus sync() = 0;
        /** Close; further calls are invalid. Destructor closes too. */
        virtual EnvStatus close() = 0;
    };

    /** nullptr + @p status on any failure (including not-found). */
    virtual std::unique_ptr<FileView>
    loadFile(const std::string &path, EnvStatus *status = nullptr) = 0;

    /** nullptr + @p status on any failure. */
    virtual std::unique_ptr<WritableFile>
    createFile(const std::string &path, EnvStatus *status = nullptr) = 0;

    /** Atomic replace (POSIX rename semantics). */
    virtual EnvStatus renameFile(const std::string &from,
                                 const std::string &to) = 0;

    /** Missing files are not an error (NotFound is still reported). */
    virtual EnvStatus removeFile(const std::string &path) = 0;

    virtual bool fileExists(const std::string &path) = 0;

    /** mkdir -p. */
    virtual EnvStatus createDirs(const std::string &dir) = 0;

    /** Filenames (not paths) in @p dir, sorted; empty on failure. */
    virtual std::vector<std::string>
    listDir(const std::string &dir, EnvStatus *status = nullptr) = 0;

    /**
     * fsync the directory itself, making completed renames/creates in
     * it durable across power loss.
     */
    virtual EnvStatus syncDir(const std::string &dir) = 0;
};

} // namespace sigcomp

#endif // SIGCOMP_COMMON_ENV_H_

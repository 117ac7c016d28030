/**
 * @file
 * Persistent significance-compressed trace store: the disk tier
 * behind analysis::TraceCache.
 *
 * PR 2 made functional simulation a once-per-process cost; the store
 * makes it a once-per-*machine* cost. Each workload's TraceBuffer
 * serializes into one segment file under the store directory,
 * columns encoded with the significance-aware codecs of
 * store/codec.h, so a cold process loads and replays instead of
 * recapturing.
 *
 * Segment file format (version 8, all integers little-endian) —
 * see README "Persistent trace store" for the full layout:
 *
 *   header (64 bytes, CRC-guarded):
 *     magic 'SCTR', format version, instruction count, memory-op
 *     count, capture limit, program fingerprint (CRC over text,
 *     data segment and entry point), flags (truncated), stop
 *     reason/exit code, lastNextPc, column count, header CRC;
 *   column directory (one 32-byte entry per column + CRC):
 *     column id, raw (decoded) bytes, encoded bytes, payload CRC;
 *   column payloads, in directory order;
 *   annex section (CRC-guarded directory, possibly empty): the
 *     trace's derived SharedQuanta records keyed by quanta key, so
 *     warm loads skip the quanta front half (see formatVersion
 *     below); each is stored in its resident form: one hit bit per
 *     instruction, a record-wide entry dictionary and a packed
 *     escape per instruction whose entry its static instruction's
 *     previous instance does not predict.
 *
 * Five columns are stored (decode index, result, taken bits, memory
 * address/data), exactly what a resident TraceBuffer holds and in
 * the same bytes: the buffer keeps each column in its segment
 * encoding, so save() copies the payloads and load() adopts them.
 * Operand values and significance tags are stored nowhere, because
 * cpu::TraceView::replay rebuilds the operands by replaying the
 * result stream through an architectural register file and
 * classifies the values it materialises. The taken column holds one
 * bit per *control* instruction, which replay reads with a cursor.
 *
 * Integrity and versioning rules:
 *  - load() is *fail-soft*: any mismatch — bad magic, unacceptable
 *    format version, CRC failure (header, directory or payload),
 *    truncated file, program fingerprint or capture-limit mismatch,
 *    malformed codec stream — returns nullptr with a reason string;
 *    callers recapture. A segment can never crash the process or
 *    yield a trace that differs from live capture.
 *  - exactly one format version is accepted. A segment written by
 *    an older version loads as stale: the store is a rebuildable
 *    cache, so recapture (and the write-through save) is the
 *    upgrade.
 *  - save() writes to a temp file, fsyncs it and the directory
 *    (StoreOptions::durableSaves) and renames into place, so readers
 *    racing a writer only ever observe complete segments and a
 *    committed segment survives power loss.
 *  - a load reads the whole segment file into a private copy
 *    and decodes from that, so a segment truncated or rewritten in
 *    place while it is being decoded fails the load softly instead of
 *    faulting on a vanished page.
 *
 * Fault handling (see README "Failure model"): every byte of store
 * I/O goes through a sigcomp::Env (common/env.h), so the same code
 * path runs over the real filesystem and under the fault-injecting
 * test Env. Transient faults (EINTR/EIO-class) are retried twice,
 * after 1 ms and then 2 ms; permanent faults (ENOSPC, EROFS)
 * fail the one operation softly and are classified for the caller
 * (save's EnvFault out-param, load's LoadFailure out-param) so the
 * cache can degrade instead of abort. Corrupt segments can be
 * quarantined — renamed aside, preserving the evidence while letting
 * a recapture re-save heal the store in place.
 *
 * Thread-safety: TraceStore is stateless between calls apart from
 * lock-free counters (all real state is the filesystem); concurrent
 * load/save/verify from any number of threads or processes is safe.
 */

#ifndef SIGCOMP_STORE_TRACE_STORE_H_
#define SIGCOMP_STORE_TRACE_STORE_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/telemetry.h"
#include "common/types.h"
#include "cpu/trace_buffer.h"
#include "isa/program.h"

namespace sigcomp::store
{

/**
 * The one segment format load() accepts. Every segment ends in an
 * **annex section** after the column payloads carrying the trace's
 * derived SharedQuanta records ("quanta:<key>" annexes, see
 * pipeline/pipeline.h), so a warm-store process skips the quanta
 * front half as well as functional capture. The capture-time write-through
 * saves an empty annex section; Session::run re-saves the segment
 * the first time it derives quanta for it
 * (TraceCache::persistAnnexes).
 *
 * Segments of any other version fail soft: older ones load as
 * LoadFailure::Stale and are recaptured and overwritten.
 */
// sigcomp-lint: format-layout-begin
// Any change to the marked format-layout regions (here and in
// trace_store.cpp) must bump formatVersion and refresh the pin:
// `tools/sigcomp_lint --update-format-pin` (checked in CI).
constexpr std::uint32_t formatVersion = 8;
// sigcomp-lint: format-layout-end

/** Per-column size accounting for stats/compression-ratio reports. */
struct ColumnStat
{
    std::string name;
    std::uint64_t rawBytes = 0;
    std::uint64_t encodedBytes = 0;

    double
    ratio() const
    {
        return encodedBytes
                   ? static_cast<double>(rawBytes) /
                         static_cast<double>(encodedBytes)
                   : 0.0;
    }
};

/** Decoded segment metadata (header + directory, no payloads). */
struct SegmentInfo
{
    std::string workload;
    std::string path;
    std::uint64_t instructions = 0;
    std::uint64_t fileBytes = 0;
    std::uint64_t captureLimit = 0;
    bool truncated = false;
    /** TraceStore::programFingerprint of the captured program. */
    std::uint32_t programFingerprint = 0;
    std::vector<ColumnStat> columns;
    /**
     * Persisted derived-record annexes, one entry per record, named
     * by annex key. Excluded from rawBytes()/encodedBytes(): those
     * report the trace columns proper.
     */
    std::vector<ColumnStat> annexes;

    std::uint64_t rawBytes() const;
    std::uint64_t encodedBytes() const;
};

/** Open-time options of a TraceStore. */
struct StoreOptions
{
    bool readOnly = false;

    /**
     * fsync the temp file and parent directory around the publishing
     * rename, so a committed segment survives power loss. Defaults
     * on; a scratch store (bench cold phases, tests) can turn it off
     * and keep only the atomic-replace guarantee.
     */
    bool durableSaves = true;

    /** I/O seam; nullptr means the real filesystem (Env::posix()). */
    Env *env = nullptr;

    /**
     * Metric namespace for store.retries / store.load_bytes /
     * store.save_bytes; nullptr means the process-wide registry.
     * TraceCache passes its own so per-Session report deltas see
     * the store traffic of that session only.
     */
    telemetry::Registry *registry = nullptr;
};

/** Why a load() returned nullptr, classified for recovery policy. */
enum class LoadFailure : std::uint8_t
{
    None = 0,
    /** No segment on disk: the ordinary cold-store miss. */
    Missing,
    /**
     * A valid segment of an older format version, or for different
     * capture parameters or program: not damage, the next
     * write-through save simply replaces it.
     */
    Stale,
    /**
     * CRC/codec/structural damage: quarantine() preserves the bytes
     * and a recapture heals the store.
     */
    Corrupt,
    /** The read itself failed (EIO-class) after retries. */
    Io,
};

/**
 * One directory of trace segments. Cheap handle: holds only the
 * path, the fault policy, and lock-free counters.
 */
class TraceStore
{
  public:
    /**
     * Open (and unless read-only, create) the store directory.
     * Fail-soft when a writable store's directory cannot be created:
     * the store opens empty and every save reports the failure; a
     * missing read-only store simply contains nothing.
     */
    explicit TraceStore(std::string dir, const StoreOptions &options);

    explicit TraceStore(std::string dir, bool read_only = false)
        : TraceStore(std::move(dir),
                     StoreOptions{.readOnly = read_only})
    {}

    const std::string &dir() const { return dir_; }
    bool readOnly() const { return readOnly_; }

    /** The I/O seam this store runs over (never null). */
    Env &env() const { return *env_; }

    /**
     * Load @p workload's trace, rebuilt against @p program (the store
     * persists only the dynamic columns; static program state is
     * rebuilt by the workload registry and checked against the
     * fingerprint). @p capture_limit must match the segment's capture
     * parameters. Fail-soft: nullptr on any mismatch or corruption,
     * with the reason in @p why when non-null.
     *
     * Segments are checked in a private copy of the file, read once
     * per load: each column's CRC, a full validating decode of every
     * stream (one codec block of scratch at a time), the decode-index
     * bounds and the memory-op and control-instruction counts. Only
     * then does the trace adopt the column payloads, as they are: it
     * holds them encoded and replay decodes them, so nothing is
     * expanded here.
     *
     * @p failure, when non-null, classifies a nullptr return for the
     * caller's recovery policy (see LoadFailure).
     */
    std::shared_ptr<cpu::TraceBuffer>
    load(const std::string &workload, const isa::Program &program,
         DWord capture_limit, std::string *why = nullptr,
         LoadFailure *failure = nullptr) const;

    /**
     * Persist @p trace as @p workload's segment (atomic
     * replace-on-rename, fsync-guarded under durableSaves, transient
     * faults retried). @return false (reason in @p why, fault class
     * in @p fault) on I/O failure or when the store is read-only;
     * never throws — a failed save only costs a
     * later recapture. @p fault lets the caller tell a retryable
     * hiccup from a permanently unwritable store.
     *
     * @p cancel is polled between transient-fault retry attempts: a
     * fired token abandons the save instead of retrying. Atomicity
     * is unaffected — each attempt either publishes a complete
     * segment via rename or leaves only an ignorable temp, so a
     * cancelled save leaves any previously published segment
     * bit-identical on disk.
     */
    bool save(const std::string &workload, const cpu::TraceBuffer &trace,
              DWord capture_limit, std::string *why = nullptr,
              EnvFault *fault = nullptr,
              const CancelToken *cancel = nullptr) const;

    /**
     * Move @p workload's (presumed damaged) segment aside to a
     * `.quar.<pid>.<seq>` sibling: the bytes survive for post-mortem,
     * list()/load() no longer see the segment, and the next capture
     * re-saves a healthy one. @return true when a segment was
     * renamed; @p quarantined_path receives the new path.
     */
    bool quarantine(const std::string &workload,
                    std::string *quarantined_path = nullptr) const;

    /** Quarantined segment files present (filenames, sorted). */
    std::vector<std::string> quarantined() const;

    /**
     * Remove orphaned `<segment>.tmp.*` files left by writers that
     * died between create and rename. Safe against live writers only
     * in the same sense as gc: don't run it while another process is
     * actively saving. @return the number of files removed.
     */
    std::size_t cleanOrphanTemps() const;

    /** Delete @p workload's segment. @return true when removed. */
    bool remove(const std::string &workload) const;

    /** Workload names of all segments present, sorted. */
    std::vector<std::string> list() const;

    /**
     * Read a segment's header, column and annex directories
     * (CRC-checked, no payload decode). @return false when the
     * segment is missing or unreadable; @p failure, when non-null,
     * classifies a false return as load() would (Missing, Stale for
     * an older format version, else Corrupt).
     */
    bool info(const std::string &workload, SegmentInfo &out,
              std::string *why = nullptr,
              LoadFailure *failure = nullptr) const;

    /**
     * Full integrity check: header, directory and payload CRCs plus
     * codec decode; with @p program also the fingerprint. @p failure
     * classifies a false return as load() would: Missing; Stale for
     * an older format version or another program's fingerprint;
     * else Corrupt.
     */
    bool verify(const std::string &workload,
                const isa::Program *program = nullptr,
                std::string *why = nullptr,
                LoadFailure *failure = nullptr) const;

    /**
     * The "quanta:" annex keys of @p trace that save() would
     * actually persist — canonical records only, capped at the
     * format's per-segment annex limit. persistAnnexes compares
     * THESE against the segment's info() annexes, so an ineligible
     * record can never cause endless no-op re-saves.
     */
    static std::vector<std::string>
    persistableAnnexKeys(const cpu::TraceBuffer &trace);

    /** Segment path for @p workload (exists or not). */
    std::string segmentPath(const std::string &workload) const;

    /**
     * Fingerprint binding a segment to the exact program it was
     * captured from: CRC over the text words, data segment and entry
     * point.
     */
    static std::uint32_t programFingerprint(const isa::Program &program);

  private:
    /** One save attempt; its status (good on success). */
    EnvStatus saveOnce(const std::string &path,
                       const std::vector<std::uint8_t> &bytes) const;

    /** Read a whole segment file, retrying transient faults. */
    std::unique_ptr<Env::FileView>
    readSegment(const std::string &path, EnvStatus *status) const;

    /**
     * Run @p attempt (one try of an operation, returning its status)
     * under the transient-fault policy: a Transient fault is retried
     * up to kTransientRetries times, each retry counted in
     * store.retries and preceded by a doubling backoff (span
     * store.retry_wait). A fired @p cancel, polled before each retry,
     * stops the retries and sets @p *cancelled. @return the last
     * try's status.
     */
    template <typename Attempt>
    EnvStatus retryTransient(const Attempt &attempt,
                             const CancelToken *cancel = nullptr,
                             bool *cancelled = nullptr) const;

    std::string dir_;
    bool readOnly_;
    bool durableSaves_;
    Env *env_;
    /** Set when the writable store's directory could not be created. */
    bool dirFailed_ = false;
    /** Telemetry handles (StoreOptions::registry). */
    telemetry::Registry &metrics_;
    telemetry::Counter &retriesMetric_;
    telemetry::Histogram &loadBytes_;
    telemetry::Histogram &saveBytes_;
};

/** Whole-store aggregation for ratio/stats reporting. */
struct StoreStats
{
    std::size_t segments = 0;
    std::uint64_t instructions = 0;
    std::uint64_t fileBytes = 0;
    /** Per-column totals summed across all readable segments. */
    std::vector<ColumnStat> columns;
    /**
     * The quanta annexes summed likewise, outside the column totals:
     * raw bytes are the records' resident form, encoded bytes their
     * on-disk payloads.
     */
    ColumnStat quanta{"quanta"};

    std::uint64_t rawBytes() const;
    std::uint64_t encodedBytes() const;

    double
    totalRatio() const
    {
        return encodedBytes()
                   ? static_cast<double>(rawBytes()) /
                         static_cast<double>(encodedBytes())
                   : 0.0;
    }
};

/**
 * Sum header/directory metadata over every readable segment in
 * @p store (unreadable segments are skipped — they are recapture
 * fodder, not an error here).
 */
StoreStats aggregateStats(const TraceStore &store);

/**
 * Emit @p columns as JSON objects
 * `{"name", "raw_bytes", "encoded_bytes", "ratio"}`, one per line
 * prefixed with @p indent, comma-separated — the shared body of the
 * `sigcomp_store stats --json` and BENCH_suite.json reports.
 */
void writeColumnsJson(std::FILE *f,
                      const std::vector<ColumnStat> &columns,
                      const char *indent);

} // namespace sigcomp::store

#endif // SIGCOMP_STORE_TRACE_STORE_H_

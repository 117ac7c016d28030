/**
 * @file
 * Operational CLI for the persistent significance-compressed trace
 * store (store/trace_store.h).
 *
 * Usage: sigcomp_store <command> [--dir DIR] [options] [workload...]
 *
 *   prewarm   Capture and persist every suite workload (or only the
 *             named ones) whose segment is missing or stale, then
 *             record the quanta annexes of suiteConfig() at Ext3,
 *             Ext2 and Half1 into every segment that lacks them, so
 *             the next simulator/bench/CI process starts warm and
 *             replays those configurations as a quanta consumer.
 *               --threads N      capture parallelism (0 = all cores,
 *                                at most 1024)
 *               --max-instrs N   capped captures (CI smoke segments)
 *               --force          recapture even over valid segments
 *               --captures-only  record no quanta annexes
 *   ls        One line per segment: instructions, file size,
 *             compression ratio, capture parameters (or why the
 *             segment is stale or corrupt).
 *   stats     Per-column compression ratios aggregated over the
 *             whole store (the codec's report card), plus a quanta
 *             row: the annexes' resident-form vs on-disk bytes.
 *               --json PATH     also write machine-readable stats
 *   verify    Full integrity check of every segment (header,
 *             directory and payload CRCs, codec decode, program
 *             fingerprint). Exit 1 if anything fails; a stale
 *             segment (older format version, or a program that
 *             changed) fails as STALE, with the reason.
 *   gc        Delete segments that can no longer replay: corrupt
 *             files, foreign format versions, fingerprints that no
 *             longer match the workload registry, unknown workloads,
 *             and orphaned temp files.
 *   doctor    Heal the store in place: verify every segment,
 *             quarantine (rename aside) the corrupt ones so the next
 *             run recaptures them (stale ones are left for the next
 *             load to recapture), sweep orphaned temp files, and
 *             emit a machine-readable report
 *             (schema "sigcomp-store-doctor-v2", --json PATH or
 *             stdout). Exit 1 only when a repair action itself
 *             failed — found-and-quarantined damage is a success.
 *
 * Default --dir is `trace-store` (the directory CI caches).
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "analysis/session.h"
#include "analysis/study_plan.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "common/table.h"
#include "cpu/trace_buffer.h"
#include "store/trace_store.h"
#include "workloads/workload.h"

namespace
{

using namespace sigcomp;
using store::TraceStore;

struct Options
{
    std::string command;
    std::string dir = "trace-store";
    std::string jsonPath;
    unsigned threads = 0;
    DWord maxInstrs = 0; // 0 = uncapped
    bool force = false;
    bool capturesOnly = false;
    std::vector<std::string> workloads;
};

int
usage()
{
    std::fprintf(
        stderr,
        "usage: sigcomp_store <prewarm|ls|stats|verify|gc|doctor>\n"
        "                     [--dir DIR] [--threads N] [--max-instrs N]\n"
        "                     [--force] [--captures-only] [--json PATH]\n"
        "                     [workload...]\n");
    return 2;
}

/** Workload names to operate on: explicit args or the whole suite. */
std::vector<std::string>
targetNames(const Options &opt)
{
    if (!opt.workloads.empty())
        return opt.workloads;
    return workloads::Suite::names();
}

bool
isSuiteWorkload(const std::string &name)
{
    for (const std::string &n : workloads::Suite::names())
        if (n == name)
            return true;
    for (const std::string &n : workloads::Suite::extraNames())
        if (n == name)
            return true;
    return false;
}

/**
 * Verify @p name against its suite program when it is a suite
 * workload, else its integrity only. @p failure classifies a false
 * return (see TraceStore::verify).
 */
bool
verifySegment(const TraceStore &ts, const std::string &name,
              std::string *why, store::LoadFailure *failure = nullptr)
{
    if (!isSuiteWorkload(name))
        return ts.verify(name, nullptr, why, failure);
    const workloads::Workload w = workloads::Suite::build(name);
    return ts.verify(name, &w.program, why, failure);
}

double
mb(std::uint64_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

int
cmdPrewarm(const Options &opt)
{
    const DWord limit =
        opt.maxInstrs ? opt.maxInstrs : cpu::TraceBuffer::defaultMaxInstrs;
    const TraceStore ts(opt.dir);
    const std::vector<std::string> names = targetNames(opt);

    // Partition into fresh (skippable) and to-capture. --force must
    // delete the existing segments first: the two-tier cache would
    // otherwise serve a valid segment from disk instead of
    // recapturing.
    std::vector<std::string> work;
    for (const std::string &name : names) {
        if (opt.force) {
            ts.remove(name);
        } else if (const auto trace = ts.load(
                       name, workloads::Suite::build(name).program, limit)) {
            // Warm: the segment loads for these capture parameters.
            std::printf("  %-12s warm (%llu instrs)\n", name.c_str(),
                        static_cast<unsigned long long>(
                            trace->runResult().instructions));
            continue;
        }
        work.push_back(name);
    }

    // Capture-and-save rides an isolated store-backed Session so the
    // CLI exercises exactly the two-tier path the studies use.
    analysis::SessionConfig scfg;
    scfg.threads = opt.threads;
    scfg.storeDir = opt.dir;
    scfg.captureLimit = limit;
    analysis::Session session(scfg);
    session.prewarm(work);

    for (const std::string &name : work)
        std::printf("  %-12s captured (%llu instrs)\n", name.c_str(),
                    static_cast<unsigned long long>(
                        session.trace(name)->runResult().instructions));
    std::printf("prewarm: %zu captured, %zu already warm, store %s\n",
                work.size(), names.size() - work.size(),
                opt.dir.c_str());
    if (opt.capturesOnly)
        return 0;

    // The activity studies at Ext3, Ext2 and Half1 run suiteConfig()
    // at each encoding, so one ordinary run records those three
    // quanta keys and persists every record a segment lacks.
    analysis::StudyPlan plan;
    plan.activity(sig::Encoding::Ext3)
        .activity(sig::Encoding::Ext2)
        .activity(sig::Encoding::Half1)
        .workloads(names)
        .evictAfterReplay();
    session.run(plan);
    std::size_t records = 0;
    for (const std::string &name : names) {
        store::SegmentInfo info;
        if (ts.info(name, info))
            records += info.annexes.size();
    }
    std::printf("prewarm: %zu quanta annexes in %zu segments\n", records,
                names.size());
    return 0;
}

int
cmdLs(const Options &opt)
{
    const TraceStore ts(opt.dir, /*read_only=*/true);
    const std::vector<std::string> names = ts.list();
    if (names.empty()) {
        std::printf("store %s: empty\n", opt.dir.c_str());
        return 0;
    }
    TextTable t({"workload", "instructions", "file MB", "raw MB", "ratio",
                 "annexes", "capture"});
    for (const std::string &name : names) {
        store::SegmentInfo info;
        std::string why;
        auto failure = store::LoadFailure::None;
        if (!ts.info(name, info, &why, &failure)) {
            why.insert(0, failure == store::LoadFailure::Stale
                              ? "stale: "
                              : "corrupt: ");
            t.beginRow().cell(name).cell(why).cell("").cell(
                 "").cell("").cell("").cell("").endRow();
            continue;
        }
        const double ratio =
            info.encodedBytes()
                ? static_cast<double>(info.rawBytes()) /
                      static_cast<double>(info.encodedBytes())
                : 0.0;
        t.beginRow()
            .cell(name)
            .cell(info.instructions)
            .cell(mb(info.fileBytes), 2)
            .cell(mb(info.rawBytes()), 2)
            .cell(ratio, 2)
            .cell(info.annexes.size())
            .cell(info.truncated
                      ? "capped@" + std::to_string(info.captureLimit)
                      : "full")
            .endRow();
    }
    std::printf("%s", t.toString().c_str());
    return 0;
}

int
cmdStats(const Options &opt)
{
    const store::StoreStats stats =
        store::aggregateStats(TraceStore(opt.dir, /*read_only=*/true));

    std::printf("store %s: %zu segments, %llu instructions, %.2f MB on "
                "disk\n\n",
                opt.dir.c_str(), stats.segments,
                static_cast<unsigned long long>(stats.instructions),
                mb(stats.fileBytes));
    TextTable t({"column", "raw MB", "encoded MB", "ratio"});
    for (const store::ColumnStat &c : stats.columns) {
        t.beginRow()
            .cell(c.name)
            .cell(mb(c.rawBytes), 2)
            .cell(mb(c.encodedBytes), 2)
            .cell(c.ratio(), 2)
            .endRow();
    }
    t.beginRow()
        .cell("TOTAL")
        .cell(mb(stats.rawBytes()), 2)
        .cell(mb(stats.encodedBytes()), 2)
        .cell(stats.totalRatio(), 2)
        .endRow();
    // Annexes: resident-form bytes against on-disk bytes.
    t.beginRow()
        .cell(stats.quanta.name)
        .cell(mb(stats.quanta.rawBytes), 2)
        .cell(mb(stats.quanta.encodedBytes), 2)
        .cell(stats.quanta.ratio(), 2)
        .endRow();
    std::printf("%s", t.toString().c_str());

    if (!opt.jsonPath.empty()) {
        std::FILE *f = std::fopen(opt.jsonPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n",
                         opt.jsonPath.c_str());
            return 1;
        }
        std::fprintf(f, "{\n  \"schema\": \"sigcomp-store-stats-v4\",\n");
        std::fprintf(f, "  \"dir\": ");
        json::writeString(f, opt.dir);
        std::fprintf(f, ",\n  \"format_version\": %u,\n",
                     store::formatVersion);
        std::fprintf(f, "  \"simd_level\": \"%s\",\n",
                     simd::simdLevelName(simd::activeSimdLevel()));
        std::fprintf(f, "  \"segments\": %zu,\n", stats.segments);
        std::fprintf(f, "  \"instructions\": %llu,\n",
                     static_cast<unsigned long long>(stats.instructions));
        std::fprintf(f, "  \"file_bytes\": %llu,\n",
                     static_cast<unsigned long long>(stats.fileBytes));
        std::fprintf(f, "  \"total_ratio\": %.3f,\n", stats.totalRatio());
        std::fprintf(f, "  \"columns\": [\n");
        store::writeColumnsJson(f, stats.columns, "    ");
        std::fprintf(f, "  ],\n");
        store::writeColumnsJson(f, {stats.quanta}, "  \"quanta\": ");
        std::fprintf(f, "}\n");
        std::fclose(f);
        std::printf("\nwrote %s\n", opt.jsonPath.c_str());
    }
    return 0;
}

int
cmdVerify(const Options &opt)
{
    const TraceStore ts(opt.dir, /*read_only=*/true);
    const std::vector<std::string> names =
        opt.workloads.empty() ? ts.list() : opt.workloads;
    int failures = 0;
    for (const std::string &name : names) {
        std::string why;
        auto failure = store::LoadFailure::None;
        const bool ok = verifySegment(ts, name, &why, &failure);
        if (ok && !isSuiteWorkload(name))
            why = "integrity only (unknown workload)";
        const bool is_stale = !ok && failure == store::LoadFailure::Stale;
        std::printf("  %-12s %s%s%s\n", name.c_str(),
                    ok ? "OK" : is_stale ? "STALE" : "FAIL",
                    why.empty() ? "" : " — ", why.c_str());
        failures += ok ? 0 : 1;
    }
    if (failures != 0) {
        std::fprintf(stderr, "verify: %d segment(s) failed\n", failures);
        return 1;
    }
    std::printf("verify: all %zu segment(s) OK\n", names.size());
    return 0;
}

int
cmdGc(const Options &opt)
{
    const TraceStore ts(opt.dir);
    std::size_t removed = 0;

    // Unverifiable or unreplayable segments.
    for (const std::string &name : ts.list()) {
        std::string why;
        bool keep = verifySegment(ts, name, &why);
        if (keep && !isSuiteWorkload(name)) {
            keep = false;
            why = "not a suite workload";
        }
        if (!keep) {
            std::printf("  rm %-12s (%s)\n", name.c_str(), why.c_str());
            ts.remove(name);
            ++removed;
        }
    }

    // Orphaned temp files from writers that died mid-save.
    const std::size_t temps = ts.cleanOrphanTemps();
    if (temps != 0)
        std::printf("  rm %zu orphaned temp file(s)\n", temps);
    removed += temps;
    std::printf("gc: removed %zu file(s), %zu segment(s) kept\n", removed,
                ts.list().size());
    return 0;
}

int
cmdDoctor(const Options &opt)
{
    const TraceStore ts(opt.dir);

    struct Finding
    {
        std::string workload;
        std::string why;
        std::string quarantinedAs; // empty = quarantine failed
    };
    std::vector<Finding> findings;
    std::size_t healthy = 0;
    std::size_t stale = 0;
    std::size_t failed_actions = 0;

    // 1. Verify every segment; quarantine the corrupt ones. Unlike
    // gc this never deletes: the damaged bytes stay on disk for
    // post-mortems while the store heals through recapture. A stale
    // segment is not damage: the next load recaptures over it.
    const std::vector<std::string> names = ts.list();
    for (const std::string &name : names) {
        std::string why;
        auto failure = store::LoadFailure::None;
        if (verifySegment(ts, name, &why, &failure)) {
            std::printf("  %-12s OK\n", name.c_str());
            ++healthy;
            continue;
        }
        if (failure == store::LoadFailure::Stale) {
            std::printf("  %-12s stale, left for recapture (%s)\n",
                        name.c_str(), why.c_str());
            ++stale;
            continue;
        }
        Finding f{name, why, {}};
        if (ts.quarantine(name, &f.quarantinedAs)) {
            std::printf("  %-12s quarantined -> %s (%s)\n", name.c_str(),
                        f.quarantinedAs.c_str(), why.c_str());
        } else {
            ++failed_actions;
            std::printf("  %-12s FAIL, quarantine failed (%s)\n",
                        name.c_str(), why.c_str());
        }
        findings.push_back(std::move(f));
    }

    // 2. Sweep temp files orphaned by writers that died mid-save.
    const std::size_t temps = ts.cleanOrphanTemps();
    const std::size_t quar_files = ts.quarantined().size();
    std::printf("doctor: %zu healthy, %zu stale, %zu quarantined, %zu "
                "orphaned temp(s) removed, %zu quarantine file(s) on "
                "disk\n",
                healthy, stale, findings.size() - failed_actions, temps,
                quar_files);

    // 3. The report: machine-readable outcome of every action.
    std::FILE *f = stdout;
    if (!opt.jsonPath.empty()) {
        f = std::fopen(opt.jsonPath.c_str(), "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", opt.jsonPath.c_str());
            return 1;
        }
    }
    std::fprintf(f, "{\n  \"schema\": \"sigcomp-store-doctor-v2\",\n");
    std::fprintf(f, "  \"dir\": ");
    json::writeString(f, opt.dir);
    std::fprintf(f, ",\n  \"segments\": %zu,\n", names.size());
    std::fprintf(f, "  \"healthy\": %zu,\n", healthy);
    std::fprintf(f, "  \"stale\": %zu,\n", stale);
    std::fprintf(f, "  \"quarantined\": [");
    for (std::size_t i = 0; i < findings.size(); ++i) {
        std::fprintf(f, "%s\n    {\"workload\": ", i ? "," : "");
        json::writeString(f, findings[i].workload);
        std::fprintf(f, ", \"why\": ");
        json::writeString(f, findings[i].why);
        std::fprintf(f, ", \"quarantined_as\": ");
        json::writeString(f, findings[i].quarantinedAs);
        std::fprintf(f, ", \"ok\": %s}",
                     findings[i].quarantinedAs.empty() ? "false" : "true");
    }
    std::fprintf(f, "%s],\n", findings.empty() ? "" : "\n  ");
    std::fprintf(f, "  \"orphan_temps_removed\": %zu,\n", temps);
    std::fprintf(f, "  \"quarantine_files\": %zu,\n", quar_files);
    std::fprintf(f, "  \"failed_actions\": %zu\n}\n", failed_actions);
    if (f != stdout) {
        std::fclose(f);
        std::printf("wrote %s\n", opt.jsonPath.c_str());
    }
    return failed_actions == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (argc < 2)
        return usage();
    opt.command = argv[1];

    for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n",
                             arg.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--dir")
            opt.dir = next();
        else if (arg == "--threads") {
            if (!ParallelExecutor::parseThreadCount(next(), &opt.threads))
                return usage();
        } else if (arg == "--max-instrs") {
            if (!json::parseWholeNumber(next(), UINT64_MAX, &opt.maxInstrs))
                return usage();
        }
        else if (arg == "--json")
            opt.jsonPath = next();
        else if (arg == "--force")
            opt.force = true;
        else if (arg == "--captures-only")
            opt.capturesOnly = true;
        else if (!arg.empty() && arg[0] == '-')
            return usage();
        else
            opt.workloads.push_back(arg);
    }

    if (opt.command == "prewarm")
        return cmdPrewarm(opt);
    if (opt.command == "ls")
        return cmdLs(opt);
    if (opt.command == "stats")
        return cmdStats(opt);
    if (opt.command == "verify")
        return cmdVerify(opt);
    if (opt.command == "gc")
        return cmdGc(opt);
    if (opt.command == "doctor")
        return cmdDoctor(opt);
    return usage();
}

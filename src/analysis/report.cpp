#include "analysis/report.h"

#include <cmath>
#include <cstdlib>

#include "common/json.h"
#include "common/logging.h"

namespace sigcomp::analysis
{

using pipeline::Design;

pipeline::ActivityTotals
sumActivity(const std::vector<ActivityRow> &rows)
{
    pipeline::ActivityTotals total;
    for (const ActivityRow &r : rows)
        total += r.activity;
    return total;
}

double
meanCpi(const std::vector<CpiRow> &rows, Design d)
{
    if (rows.empty())
        return 0.0;
    double log_sum = 0.0;
    for (const CpiRow &r : rows) {
        // DesignTable::at() fatals with context when d is absent.
        log_sum += std::log(r.cpi.at(d));
    }
    return std::exp(log_sum / static_cast<double>(rows.size()));
}

std::vector<CpiRow>
CpiStudyResult::rows() const
{
    std::vector<CpiRow> out(benchmarks.size());
    for (std::size_t w = 0; w < benchmarks.size(); ++w) {
        out[w].benchmark = benchmarks[w];
        for (std::size_t d = 0; d < designs.size(); ++d) {
            out[w].cpi[designs[d]] = results[w][d].cpi();
            out[w].stalls[designs[d]] = results[w][d].stalls;
        }
    }
    return out;
}

double
CpiStudyResult::geomeanCpi(Design d) const
{
    return meanCpi(rows(), d);
}

double
CpiStudyResult::columnGeomeanCpi(std::size_t c) const
{
    if (results.empty())
        return 0.0;
    // Same accumulation order as meanCpi(), so a design column's
    // value is bit-identical to geomeanCpi(design).
    double log_sum = 0.0;
    for (const std::vector<pipeline::PipelineResult> &row : results)
        log_sum += std::log(row[c].cpi());
    return std::exp(log_sum / static_cast<double>(results.size()));
}

std::string
CpiStudyResult::columnName(std::size_t c) const
{
    return c < designs.size()
               ? pipeline::designName(designs[c])
               : pipeline::widthsName(widths[c - designs.size()]);
}

namespace
{

void
writeActivityTotalsJson(std::FILE *f, const pipeline::ActivityTotals &a,
                        const char *indent)
{
    const struct
    {
        const char *name;
        const pipeline::BitPair &bp;
    } stages[] = {
        {"fetch", a.fetch},     {"rf_read", a.rfRead},
        {"rf_write", a.rfWrite}, {"alu", a.alu},
        {"dc_data", a.dcData},  {"dc_tag", a.dcTag},
        {"pc_inc", a.pcInc},    {"latch", a.latch},
    };
    std::fprintf(f, "{");
    for (std::size_t s = 0; s < 8; ++s) {
        std::fprintf(f, "%s\n%s  \"%s\": {\"compressed\": %llu, "
                        "\"baseline\": %llu, \"saving\": %.2f}",
                     s ? "," : "", indent, stages[s].name,
                     static_cast<unsigned long long>(
                         stages[s].bp.compressed),
                     static_cast<unsigned long long>(
                         stages[s].bp.baseline),
                     stages[s].bp.saving());
    }
    std::fprintf(f, "\n%s}", indent);
}

/**
 * The run's metrics delta, on ONE line: the fault tests strip the
 * telemetry block line-wise to compare study bytes across runs whose
 * engine work differs, so it must never wrap. Counters and histogram
 * bucket shapes only — no wall times (Nanos-unit metrics) and no
 * gauges, so the block is deterministic for a fixed plan and can be
 * golden-pinned. Zero-valued metrics are elided: the block describes
 * what this run did, and a disabled-telemetry run (histograms off)
 * then differs from an enabled one only by the histograms it lacks.
 */
void
writeTelemetryJson(std::FILE *f, const telemetry::Snapshot &snap)
{
    std::fprintf(f, "  \"telemetry\": {\"counters\": {");
    bool first = true;
    for (const telemetry::SnapshotMetric &m : snap.metrics) {
        if (m.kind != telemetry::Kind::Counter || m.value == 0 ||
            m.unit == telemetry::Unit::Nanos)
            continue;
        std::fprintf(f, "%s", first ? "" : ", ");
        json::writeString(f, m.name);
        std::fprintf(f, ": %llu",
                     static_cast<unsigned long long>(m.value));
        first = false;
    }
    std::fprintf(f, "}, \"histograms\": [");
    first = true;
    for (const telemetry::SnapshotMetric &m : snap.metrics) {
        if (m.kind != telemetry::Kind::Histogram || m.count == 0 ||
            m.unit == telemetry::Unit::Nanos)
            continue;
        std::fprintf(f, "%s{\"name\": ", first ? "" : ", ");
        json::writeString(f, m.name);
        std::fprintf(f,
                     ", \"unit\": \"%s\", \"count\": %llu, "
                     "\"sum\": %llu, \"buckets\": [",
                     telemetry::unitName(m.unit),
                     static_cast<unsigned long long>(m.count),
                     static_cast<unsigned long long>(m.sum));
        // Sparse [bit_width, samples] pairs of the non-empty buckets.
        bool bfirst = true;
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
            if (m.buckets[b] == 0)
                continue;
            std::fprintf(f, "%s[%zu, %llu]", bfirst ? "" : ", ", b,
                         static_cast<unsigned long long>(m.buckets[b]));
            bfirst = false;
        }
        std::fprintf(f, "]}");
        first = false;
    }
    std::fprintf(f, "]},\n");
}

} // namespace

void
SuiteReport::writeJson(std::FILE *f) const
{
    std::fprintf(f, "{\n  \"schema\": \"sigcomp-suite-report-v4\",\n");
    std::fprintf(f, "  \"threads\": %u,\n", threads);
    std::fprintf(f, "  \"workloads\": [");
    for (std::size_t i = 0; i < workloads.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "", workloads[i].c_str());
    std::fprintf(f, "],\n");
    std::fprintf(f, "  \"instructions\": %llu,\n",
                 static_cast<unsigned long long>(instructions));
    std::fprintf(f,
                 "  \"engine\": {\"replay_passes\": %llu, "
                 "\"captures\": %llu, \"store_loads\": %llu, "
                 "\"wall_ms\": %.3f},\n",
                 static_cast<unsigned long long>(replayPasses),
                 static_cast<unsigned long long>(captures),
                 static_cast<unsigned long long>(storeLoads), wallMs);
    // The health block stays on ONE line (degradations included):
    // the fault tests strip it line-wise to compare study bytes
    // across runs whose recovery work differs. v4 appends the
    // request-lifecycle outcome here — same line, same reason.
    std::fprintf(f,
                 "  \"health\": {\"store_load_failures\": %llu, "
                 "\"quarantined_segments\": %llu, \"retries\": %llu, "
                 "\"cancelled\": %s, \"deadline_exceeded\": %s, "
                 "\"rejected\": %s, \"reject_reason\": ",
                 static_cast<unsigned long long>(storeLoadFailures),
                 static_cast<unsigned long long>(quarantinedSegments),
                 static_cast<unsigned long long>(retries),
                 cancelled ? "true" : "false",
                 deadlineExceeded ? "true" : "false",
                 rejected ? "true" : "false");
    json::writeString(f, rejectReason);
    std::fprintf(f, ", \"degradations\": [");
    for (std::size_t i = 0; i < degradations.size(); ++i) {
        std::fprintf(f, "%s", i ? ", " : "");
        json::writeString(f, degradations[i]);
    }
    std::fprintf(f, "]},\n");
    writeTelemetryJson(f, telemetry);

    std::fprintf(f, "  \"activity\": [");
    for (std::size_t s = 0; s < activity.size(); ++s) {
        const ActivityStudyResult &st = activity[s];
        std::fprintf(f, "%s\n    {\"encoding\": \"%s\",\n"
                        "     \"rows\": [",
                     s ? "," : "", sig::encodingName(st.encoding).c_str());
        for (std::size_t w = 0; w < st.rows.size(); ++w) {
            std::fprintf(f, "%s\n      {\"benchmark\": \"%s\", "
                            "\"activity\": ",
                         w ? "," : "", st.rows[w].benchmark.c_str());
            writeActivityTotalsJson(f, st.rows[w].activity, "      ");
            std::fprintf(f, "}");
        }
        std::fprintf(f, "\n     ],\n     \"total\": ");
        writeActivityTotalsJson(f, st.total(), "     ");
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n  ],\n");

    std::fprintf(f, "  \"cpi\": [");
    for (std::size_t s = 0; s < cpi.size(); ++s) {
        const CpiStudyResult &st = cpi[s];
        // Width-point columns list under "designs" by their names.
        std::fprintf(f, "%s\n    {\"designs\": [", s ? "," : "");
        for (std::size_t d = 0; d < st.columns(); ++d)
            std::fprintf(f, "%s\"%s\"", d ? ", " : "",
                         st.columnName(d).c_str());
        std::fprintf(f, "],\n     \"rows\": [");
        for (std::size_t w = 0; w < st.benchmarks.size(); ++w) {
            std::fprintf(f, "%s\n      {\"benchmark\": \"%s\"",
                         w ? "," : "", st.benchmarks[w].c_str());
            for (std::size_t d = 0; d < st.columns(); ++d) {
                const pipeline::PipelineResult &r = st.results[w][d];
                std::fprintf(f,
                             ", \"%s\": {\"cpi\": %.6f, \"cycles\": "
                             "%llu, \"stall_cycles\": %llu}",
                             st.columnName(d).c_str(), r.cpi(),
                             static_cast<unsigned long long>(r.cycles),
                             static_cast<unsigned long long>(
                                 r.stalls.total()));
            }
            std::fprintf(f, "}");
        }
        std::fprintf(f, "\n     ],\n     \"geomean\": {");
        for (std::size_t d = 0; d < st.columns(); ++d)
            std::fprintf(f, "%s\"%s\": %.6f", d ? ", " : "",
                         st.columnName(d).c_str(),
                         st.columnGeomeanCpi(d));
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n  ],\n");

    std::fprintf(f, "  \"energy\": [");
    for (std::size_t s = 0; s < energy.size(); ++s) {
        const EnergyStudyResult &st = energy[s];
        std::fprintf(f,
                     "%s\n    {\"design\": \"%s\", \"encoding\": "
                     "\"%s\", \"vdd\": %.2f,\n     \"rows\": [",
                     s ? "," : "",
                     pipeline::designName(st.design).c_str(),
                     sig::encodingName(st.encoding).c_str(),
                     st.tech.vdd);
        for (std::size_t w = 0; w < st.rows.size(); ++w) {
            const EnergyRow &r = st.rows[w];
            std::fprintf(f, "%s\n      {\"benchmark\": \"%s\", "
                            "\"instructions\": %llu, ",
                         w ? "," : "", r.benchmark.c_str(),
                         static_cast<unsigned long long>(r.instructions));
            power::writeEnergyReportJson(f, r.report);
            std::fprintf(f, "}");
        }
        std::fprintf(f, "\n     ],\n     \"total\": {");
        power::writeEnergyReportJson(f, st.total);
        std::fprintf(f, "}}");
    }
    std::fprintf(f, "\n  ],\n");
    std::fprintf(f, "  \"profile_sinks\": %zu\n}\n", profileSinks);
}

std::string
SuiteReport::toJson() const
{
    char *buf = nullptr;
    std::size_t len = 0;
    std::FILE *f = open_memstream(&buf, &len);
    SC_ASSERT(f != nullptr, "open_memstream failed");
    writeJson(f);
    std::fclose(f);
    std::string out(buf, len);
    std::free(buf);
    return out;
}

} // namespace sigcomp::analysis

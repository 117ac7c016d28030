#include "analysis/report.h"

#include <algorithm>
#include <cctype>
#include <cmath>

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

std::size_t
CpiStudyResult::column(Design d) const
{
    const auto it = std::find(designs.begin(), designs.end(), d);
    SC_ASSERT(it != designs.end(), "design '", pipeline::designName(d),
              "' missing from CPI study");
    return static_cast<std::size_t>(it - designs.begin());
}

double
CpiStudyResult::geomeanCpi(Design d) const
{
    return columnGeomeanCpi(column(d));
}

double
CpiStudyResult::columnGeomeanCpi(std::size_t c) const
{
    if (results.empty())
        return 0.0;
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

using json::Fixed;
using json::Quoted;

void
appendActivityTotalsJson(std::string &out, const pipeline::ActivityTotals &a,
                         std::string_view indent)
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
    out += '{';
    for (std::size_t s = 0; s < 8; ++s) {
        json::append(out, s ? "," : "", "\n", indent, "  \"",
                     stages[s].name, "\": {\"compressed\": ",
                     stages[s].bp.compressed, ", \"baseline\": ",
                     stages[s].bp.baseline, ", \"saving\": ",
                     Fixed{stages[s].bp.saving(), 2}, "}");
    }
    json::append(out, "\n", indent, "}");
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
appendTelemetryJson(std::string &out, const telemetry::Snapshot &snap)
{
    out += "  \"telemetry\": {\"counters\": {";
    bool first = true;
    for (const telemetry::SnapshotMetric &m : snap.metrics) {
        if (m.kind != telemetry::Kind::Counter || m.value == 0 ||
            m.unit == telemetry::Unit::Nanos)
            continue;
        json::append(out, first ? "" : ", ", Quoted{m.name}, ": ",
                     m.value);
        first = false;
    }
    out += "}, \"histograms\": [";
    first = true;
    for (const telemetry::SnapshotMetric &m : snap.metrics) {
        if (m.kind != telemetry::Kind::Histogram || m.count == 0 ||
            m.unit == telemetry::Unit::Nanos)
            continue;
        json::append(out, first ? "" : ", ", "{\"name\": ",
                     Quoted{m.name}, ", \"unit\": \"",
                     telemetry::unitName(m.unit), "\", \"count\": ",
                     m.count, ", \"sum\": ", m.sum, ", \"buckets\": [");
        // Sparse [bit_width, samples] pairs of the non-empty buckets.
        bool bfirst = true;
        for (std::size_t b = 0; b < m.buckets.size(); ++b) {
            if (m.buckets[b] == 0)
                continue;
            json::append(out, bfirst ? "" : ", ", "[", b, ", ",
                         m.buckets[b], "]");
            bfirst = false;
        }
        out += "]}";
        first = false;
    }
    out += "]},\n";
}

} // namespace

std::string
zeroWallMs(const std::string &json)
{
    static const std::string kKey = "\"wall_ms\": ";
    std::string out;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t at = json.find(kKey, pos);
        if (at == std::string::npos) {
            out.append(json, pos, std::string::npos);
            return out;
        }
        std::size_t end = at + kKey.size();
        while (end < json.size() &&
               (std::isdigit(static_cast<unsigned char>(json[end])) !=
                    0 ||
                json[end] == '.' || json[end] == '-' ||
                json[end] == 'e' || json[end] == '+')) {
            ++end;
        }
        out.append(json, pos, at + kKey.size() - pos);
        out += "0.000";
        pos = end;
    }
}

std::string
SuiteReport::toJson() const
{
    std::string out;
    out.reserve(8192);
    json::append(out, "{\n  \"schema\": \"sigcomp-suite-report-v4\",\n",
                 "  \"threads\": ", threads, ",\n", "  \"workloads\": [");
    for (std::size_t i = 0; i < workloads.size(); ++i)
        json::append(out, i ? ", " : "", "\"", workloads[i], "\"");
    json::append(out, "],\n", "  \"instructions\": ", instructions,
                 ",\n", "  \"engine\": {\"replay_passes\": ",
                 replayPasses, ", \"captures\": ", captures,
                 ", \"store_loads\": ", storeLoads,
                 ", \"wall_ms\": ", Fixed{wallMs, 3}, "},\n");
    // The health block stays on ONE line (degradations included):
    // the fault tests strip it line-wise to compare study bytes
    // across runs whose recovery work differs. v4 appends the
    // request-lifecycle outcome here — same line, same reason.
    json::append(out, "  \"health\": {\"store_load_failures\": ",
                 storeLoadFailures, ", \"quarantined_segments\": ",
                 quarantinedSegments, ", \"retries\": ", retries,
                 ", \"cancelled\": ", cancelled ? "true" : "false",
                 ", \"deadline_exceeded\": ",
                 deadlineExceeded ? "true" : "false",
                 ", \"rejected\": ", rejected ? "true" : "false",
                 ", \"reject_reason\": ", Quoted{rejectReason},
                 ", \"degradations\": [");
    for (std::size_t i = 0; i < degradations.size(); ++i)
        json::append(out, i ? ", " : "", Quoted{degradations[i]});
    out += "]},\n";
    appendTelemetryJson(out, telemetry);

    out += "  \"activity\": [";
    for (std::size_t s = 0; s < activity.size(); ++s) {
        const ActivityStudyResult &st = activity[s];
        json::append(out, s ? "," : "", "\n    {\"encoding\": \"",
                     sig::encodingName(st.encoding),
                     "\",\n     \"rows\": [");
        for (std::size_t w = 0; w < st.rows.size(); ++w) {
            json::append(out, w ? "," : "",
                         "\n      {\"benchmark\": \"",
                         st.rows[w].benchmark, "\", \"activity\": ");
            appendActivityTotalsJson(out, st.rows[w].activity, "      ");
            out += '}';
        }
        out += "\n     ],\n     \"total\": ";
        appendActivityTotalsJson(out, st.total(), "     ");
        out += '}';
    }
    out += "\n  ],\n";

    out += "  \"cpi\": [";
    for (std::size_t s = 0; s < cpi.size(); ++s) {
        const CpiStudyResult &st = cpi[s];
        std::vector<std::string> columns(st.columns());
        for (std::size_t d = 0; d < columns.size(); ++d)
            columns[d] = st.columnName(d);
        // Width-point columns list under "designs" by their names.
        json::append(out, s ? "," : "", "\n    {\"designs\": [");
        for (std::size_t d = 0; d < columns.size(); ++d)
            json::append(out, d ? ", " : "", "\"", columns[d], "\"");
        out += "],\n     \"rows\": [";
        for (std::size_t w = 0; w < st.benchmarks.size(); ++w) {
            json::append(out, w ? "," : "", "\n      {\"benchmark\": \"",
                         st.benchmarks[w], "\"");
            for (std::size_t d = 0; d < columns.size(); ++d) {
                const pipeline::PipelineResult &r = st.results[w][d];
                json::append(out, ", \"", columns[d], "\": {\"cpi\": ",
                             Fixed{r.cpi(), 6}, ", \"cycles\": ",
                             r.cycles, ", \"stall_cycles\": ",
                             r.stalls.total(), "}");
            }
            out += '}';
        }
        out += "\n     ],\n     \"geomean\": {";
        for (std::size_t d = 0; d < columns.size(); ++d)
            json::append(out, d ? ", " : "", "\"", columns[d], "\": ",
                         Fixed{st.columnGeomeanCpi(d), 6});
        out += "}}";
    }
    out += "\n  ],\n";

    out += "  \"energy\": [";
    for (std::size_t s = 0; s < energy.size(); ++s) {
        const EnergyStudyResult &st = energy[s];
        json::append(out, s ? "," : "", "\n    {\"design\": \"",
                     pipeline::designName(st.design),
                     "\", \"encoding\": \"",
                     sig::encodingName(st.encoding), "\", \"vdd\": ",
                     Fixed{st.tech.vdd, 2}, ",\n     \"rows\": [");
        for (std::size_t w = 0; w < st.rows.size(); ++w) {
            const EnergyRow &r = st.rows[w];
            json::append(out, w ? "," : "", "\n      {\"benchmark\": \"",
                         r.benchmark, "\", \"instructions\": ",
                         r.instructions, ", ");
            power::appendEnergyReportJson(out, r.report);
            out += '}';
        }
        out += "\n     ],\n     \"total\": {";
        power::appendEnergyReportJson(out, st.total);
        out += "}}";
    }
    out += "\n  ],\n";
    json::append(out, "  \"profile_sinks\": ", profileSinks, "\n}\n");
    return out;
}

} // namespace sigcomp::analysis

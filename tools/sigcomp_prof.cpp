/**
 * @file
 * Offline summariser for the Chrome trace-event JSON profiles the
 * telemetry layer writes (common/telemetry.h, SIGCOMP_TRACE /
 * telemetry::writeTrace). chrome://tracing and Perfetto render the
 * file; this tool answers the terminal-side questions — where did
 * the time go, per phase and per worker — and gives CI a structural
 * validator so a malformed trace fails the build, not the viewer.
 *
 * Usage: sigcomp_prof <command> <trace.json> [options]
 *
 * <trace.json> must be a regular file (it is mapped, not streamed):
 * decompress a .gz trace to a file first; a pipe is refused.
 *
 *   validate   Parse the file and check the trace-event contract:
 *              top-level object with a traceEvents array, every
 *              event an object with ph/pid/tid, every "X" (complete)
 *              event carrying name/ts/dur, spans on one track
 *              properly nested (RAII scopes cannot interleave).
 *              Prints event and track counts; exit 1 on any
 *              violation.
 *   summarize  Per-label totals (count, total/self time — self is
 *              total minus direct children), per-track utilisation,
 *              the top-N longest spans, and the critical path (the
 *              longest root span and its longest-child chain).
 *                --top N      spans in the top list (default 10)
 *                --json       machine-readable output
 *                             (schema "sigcomp-prof-summary-v1")
 *
 * The file is read with the repo's one strict JSON reader
 * (common/json.h): besides malformed JSON it refuses duplicate keys,
 * non-ASCII text, strings over 128 bytes, nesting over 12 levels and
 * non-finite or non-JSON numbers, which no trace writer emits. Keys
 * the summary does not use are skipped, not stored.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.h"
#include "common/json.h"

namespace
{

namespace json = sigcomp::json;

// ------------------------------------------------------------------
// Trace model: the "X" (complete) events plus thread-name metadata.
// ------------------------------------------------------------------

struct Span
{
    std::string name;
    std::uint64_t tid = 0;
    double tsUs = 0.0;
    double durUs = 0.0;
    /** Sum of direct children's durations (filled by the nester). */
    double childUs = 0.0;
};

struct Trace
{
    std::vector<Span> spans;
    std::map<std::uint64_t, std::string> threadNames;
    std::size_t metaEvents = 0;
};

int
failValidation(const std::string &why)
{
    std::fprintf(stderr, "sigcomp_prof: invalid trace: %s\n",
                 why.c_str());
    return 1;
}

/** The fields of one trace event the summary reads. */
struct Event
{
    std::optional<std::string> ph;
    std::optional<std::string> name;
    /** args.name: a thread name on "M" thread_name events. */
    std::optional<std::string> argsName;
    std::optional<std::uint64_t> tid;
    std::optional<double> ts;
    std::optional<double> dur;
};

/**
 * Read one event object into @p e. A known key holding a value of
 * another type is skipped and left unset, for addEvent to report.
 */
bool
readEvent(json::Reader &r, Event &e)
{
    constexpr std::uint64_t kAnyId = std::numeric_limits<std::uint64_t>::max();
    return r.parseObject([&](const std::string &key, std::size_t) {
        const char c = r.peek();
        const bool is_string = c == '"';
        const bool is_number = c == '-' || (c >= '0' && c <= '9');
        if (key == "ph" && is_string)
            return r.parseString(&e.ph.emplace());
        if (key == "name" && is_string)
            return r.parseString(&e.name.emplace());
        if (key == "pid" && is_number) {
            std::uint64_t pid = 0;
            return r.parseU64(&pid, kAnyId, "pid");
        }
        if (key == "tid" && is_number)
            return r.parseU64(&e.tid.emplace(), kAnyId, "tid");
        if (key == "ts" && is_number)
            return r.parseDouble(&e.ts.emplace(), "ts");
        if (key == "dur" && is_number)
            return r.parseDouble(&e.dur.emplace(), "dur");
        if (key == "args" && c == '{') {
            return r.parseObject([&](const std::string &arg, std::size_t) {
                if (arg == "name" && r.peek() == '"')
                    return r.parseString(&e.argsName.emplace());
                return r.skipValue();
            });
        }
        return r.skipValue();
    });
}

/**
 * Check event @p i against the trace-event contract and add it to
 * @p out. Returns an empty string, or the reason it is invalid.
 */
std::string
addEvent(const Event &e, std::size_t i, Trace &out)
{
    const std::string at = "traceEvents[" + std::to_string(i) + "]";
    if (!e.ph)
        return at + " has no string 'ph'";
    if (!e.tid)
        return at + " has no numeric 'tid'";
    if (*e.ph == "M") {
        ++out.metaEvents;
        if (e.name == "thread_name" && e.argsName)
            out.threadNames[*e.tid] = *e.argsName;
        return "";
    }
    if (*e.ph != "X")
        return at + " has unsupported ph '" + *e.ph + "'";
    if (!e.name || e.name->empty())
        return at + " (complete event) has no span name";
    if (!e.ts || !e.dur)
        return at + " (complete event) has no numeric ts/dur";
    if (*e.ts < 0 || *e.dur < 0)
        return at + " has negative ts or dur";
    out.spans.push_back({*e.name, *e.tid, *e.ts, *e.dur});
    return "";
}

/**
 * Load and structurally validate @p path into @p out. Returns an
 * empty string on success, else the reason the file is not a valid
 * trace-event profile. The whole file is parsed first, so a JSON
 * error anywhere outranks a structural one; of the structural
 * violations the first in input order is reported.
 */
std::string
loadTrace(const std::string &path, Trace &out)
{
    // The file is mapped, so a pipe or device (size 0 to fstat) would
    // read as an empty document; name the cause instead.
    std::error_code ec;
    if (std::filesystem::exists(path, ec) &&
        !std::filesystem::is_regular_file(path, ec))
        return "'" + path + "' is not a regular file";
    const auto file = sigcomp::Env::posix().loadFile(path);
    if (file == nullptr)
        return "cannot open '" + path + "'";
    const std::string_view text(
        reinterpret_cast<const char *>(file->data()), file->size());

    json::Error error;
    json::Reader r(text, &error);
    std::string why;
    bool saw_events = false;
    bool ok = false;
    if (!json::depthWithinCap(text)) {
        ok = r.fail(json::ErrorKind::OutOfRange, 0,
                    "nesting deeper than " +
                        std::to_string(json::kMaxDepth) + " levels");
    } else if (r.peek() != '{') {
        why = "top level is not an object";
        ok = r.skipValue();
    } else {
        ok = r.parseObject([&](const std::string &key, std::size_t) {
            if (key != "traceEvents")
                return r.skipValue();
            if (r.peek() != '[') {
                why = "missing 'traceEvents' array";
                return r.skipValue();
            }
            saw_events = true;
            std::size_t i = 0;
            return r.parseArray(
                std::numeric_limits<std::size_t>::max(), "traceEvents",
                [&] {
                    const std::size_t index = i++;
                    if (r.peek() != '{') {
                        if (why.empty()) {
                            why = "traceEvents[" + std::to_string(index) +
                                  "] is not an object";
                        }
                        return r.skipValue();
                    }
                    Event e;
                    if (!readEvent(r, e))
                        return false;
                    if (why.empty())
                        why = addEvent(e, index, out);
                    return true;
                });
        });
    }
    if (ok && !r.atEnd()) {
        ok = r.fail(json::ErrorKind::Syntax, r.pos(),
                    "trailing bytes after the JSON document");
    }
    if (!ok) {
        const auto line =
            1 + std::count(text.begin(), text.begin() + error.offset, '\n');
        return "JSON " + json::errorKindName(error.kind) + " at byte " +
               std::to_string(error.offset) + " (line " +
               std::to_string(line) + "): " + error.message;
    }
    if (why.empty() && !saw_events)
        why = "missing 'traceEvents' array";
    return why;
}

constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

/**
 * Establish parent/child structure per track and fill childUs (and
 * @p parent with each span's direct parent index, kNoParent for
 * roots, when non-null). Spans on one tid come from RAII scopes, so
 * they must nest; an interleaving pair is a corrupt trace. Returns
 * indices of root spans (no enclosing span on their track), or an
 * error via @p why.
 */
std::vector<std::size_t>
nestSpans(Trace &t, std::string *why,
          std::vector<std::size_t> *parent = nullptr)
{
    if (parent != nullptr)
        parent->assign(t.spans.size(), kNoParent);
    std::vector<std::size_t> order(t.spans.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    // Start-time order per track; ties open the longer span first
    // (the enclosing scope starts no later than what it encloses).
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  const Span &sa = t.spans[a];
                  const Span &sb = t.spans[b];
                  if (sa.tid != sb.tid)
                      return sa.tid < sb.tid;
                  if (sa.tsUs != sb.tsUs)
                      return sa.tsUs < sb.tsUs;
                  return sa.durUs > sb.durUs;
              });

    std::vector<std::size_t> roots;
    std::vector<std::size_t> stack; // open spans on the current track
    std::uint64_t track = 0;
    for (const std::size_t idx : order) {
        Span &s = t.spans[idx];
        if (stack.empty() || s.tid != track) {
            stack.clear();
            track = s.tid;
        }
        while (!stack.empty()) {
            const Span &open = t.spans[stack.back()];
            if (open.tsUs + open.durUs <= s.tsUs) {
                stack.pop_back();
                continue;
            }
            // Still open: must fully contain this span.
            if (s.tsUs + s.durUs > open.tsUs + open.durUs + 1e-6) {
                if (why != nullptr) {
                    *why = "spans '" + open.name + "' and '" + s.name +
                           "' interleave on tid " +
                           std::to_string(s.tid) +
                           " — RAII scopes cannot do that";
                }
                return {};
            }
            break;
        }
        if (stack.empty()) {
            roots.push_back(idx);
        } else {
            t.spans[stack.back()].childUs += s.durUs;
            if (parent != nullptr)
                (*parent)[idx] = stack.back();
        }
        stack.push_back(idx);
    }
    return roots;
}

// ------------------------------------------------------------------
// summarize
// ------------------------------------------------------------------

struct LabelStats
{
    std::uint64_t count = 0;
    double totalUs = 0.0;
    double selfUs = 0.0;
};

struct TrackStats
{
    double busyUs = 0.0; // sum of root spans (no double counting)
    double spanUs = 0.0; // sum of all spans
    std::uint64_t spans = 0;
};

int
summarize(Trace &t, std::size_t top_n, bool as_json)
{
    std::string why;
    std::vector<std::size_t> parent;
    const std::vector<std::size_t> roots = nestSpans(t, &why, &parent);
    if (roots.empty() && !t.spans.empty())
        return failValidation(why);

    std::map<std::string, LabelStats> labels;
    std::map<std::uint64_t, TrackStats> tracks;
    double begin_us = 0.0, end_us = 0.0;
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
        const Span &s = t.spans[i];
        LabelStats &ls = labels[s.name];
        ls.count += 1;
        ls.totalUs += s.durUs;
        ls.selfUs += s.durUs - s.childUs;
        TrackStats &ts = tracks[s.tid];
        ts.spanUs += s.durUs;
        ts.spans += 1;
        if (i == 0 || s.tsUs < begin_us)
            begin_us = s.tsUs;
        end_us = std::max(end_us, s.tsUs + s.durUs);
    }
    for (const std::size_t r : roots)
        tracks[t.spans[r].tid].busyUs += t.spans[r].durUs;

    // Top spans by duration.
    std::vector<std::size_t> by_dur(t.spans.size());
    for (std::size_t i = 0; i < by_dur.size(); ++i)
        by_dur[i] = i;
    std::sort(by_dur.begin(), by_dur.end(),
              [&](std::size_t a, std::size_t b) {
                  if (t.spans[a].durUs != t.spans[b].durUs)
                      return t.spans[a].durUs > t.spans[b].durUs;
                  return t.spans[a].tsUs < t.spans[b].tsUs;
              });
    if (by_dur.size() > top_n)
        by_dur.resize(top_n);

    // Critical path: the longest root span, then repeatedly its
    // longest direct child (by the parent links the nester built).
    std::vector<std::size_t> critical;
    {
        std::size_t cur = kNoParent;
        for (const std::size_t r : roots) {
            if (cur == kNoParent || t.spans[r].durUs > t.spans[cur].durUs)
                cur = r;
        }
        while (cur != kNoParent) {
            critical.push_back(cur);
            std::size_t best = kNoParent;
            for (std::size_t i = 0; i < t.spans.size(); ++i) {
                if (parent[i] == cur &&
                    (best == kNoParent ||
                     t.spans[i].durUs > t.spans[best].durUs))
                    best = i;
            }
            cur = best;
        }
    }

    const double wall_us = end_us - begin_us;
    if (as_json) {
        // Span and thread names are arbitrary strings: escape them.
        const auto quoted = [](const std::string &s) {
            std::string out = "\"";
            json::appendEscaped(out, s);
            return out + '"';
        };
        std::printf("{\n  \"schema\": \"sigcomp-prof-summary-v1\",\n");
        std::printf("  \"events\": %zu,\n", t.spans.size());
        std::printf("  \"tracks\": %zu,\n", tracks.size());
        std::printf("  \"wall_us\": %.3f,\n", wall_us);
        std::printf("  \"labels\": [");
        bool first = true;
        for (const auto &[name, ls] : labels) {
            std::printf("%s\n    {\"name\": %s, \"count\": %llu, "
                        "\"total_us\": %.3f, \"self_us\": %.3f}",
                        first ? "" : ",", quoted(name).c_str(),
                        static_cast<unsigned long long>(ls.count),
                        ls.totalUs, ls.selfUs);
            first = false;
        }
        std::printf("\n  ],\n  \"tracks_detail\": [");
        first = true;
        for (const auto &[tid, ts] : tracks) {
            const auto it = t.threadNames.find(tid);
            std::printf(
                "%s\n    {\"tid\": %llu, \"name\": %s, "
                "\"spans\": %llu, \"busy_us\": %.3f, "
                "\"utilization\": %.4f}",
                first ? "" : ",", static_cast<unsigned long long>(tid),
                quoted(it == t.threadNames.end() ? "" : it->second)
                    .c_str(),
                static_cast<unsigned long long>(ts.spans), ts.busyUs,
                wall_us > 0 ? ts.busyUs / wall_us : 0.0);
            first = false;
        }
        std::printf("\n  ],\n  \"top_spans\": [");
        first = true;
        for (const std::size_t i : by_dur) {
            std::printf("%s\n    {\"name\": %s, \"tid\": %llu, "
                        "\"ts_us\": %.3f, \"dur_us\": %.3f}",
                        first ? "" : ",", quoted(t.spans[i].name).c_str(),
                        static_cast<unsigned long long>(t.spans[i].tid),
                        t.spans[i].tsUs, t.spans[i].durUs);
            first = false;
        }
        std::printf("\n  ],\n  \"critical_path\": [");
        first = true;
        for (const std::size_t i : critical) {
            std::printf("%s\n    {\"name\": %s, \"dur_us\": %.3f}",
                        first ? "" : ",", quoted(t.spans[i].name).c_str(),
                        t.spans[i].durUs);
            first = false;
        }
        std::printf("\n  ]\n}\n");
        return 0;
    }

    std::printf("trace: %zu span events on %zu track(s), %.3f ms wall\n",
                t.spans.size(), tracks.size(), wall_us / 1000.0);
    std::printf("\n%-28s %10s %14s %14s\n", "label", "count",
                "total (ms)", "self (ms)");
    // Heaviest self-time first: that is where optimisation lives.
    std::vector<std::pair<std::string, LabelStats>> rows(labels.begin(),
                                                         labels.end());
    std::sort(rows.begin(), rows.end(),
              [](const auto &a, const auto &b) {
                  return a.second.selfUs > b.second.selfUs;
              });
    for (const auto &[name, ls] : rows) {
        std::printf("%-28s %10llu %14.3f %14.3f\n", name.c_str(),
                    static_cast<unsigned long long>(ls.count),
                    ls.totalUs / 1000.0, ls.selfUs / 1000.0);
    }
    std::printf("\n%-8s %-24s %10s %14s %12s\n", "tid", "thread",
                "spans", "busy (ms)", "utilization");
    for (const auto &[tid, ts] : tracks) {
        const auto it = t.threadNames.find(tid);
        std::printf("%-8llu %-24s %10llu %14.3f %11.1f%%\n",
                    static_cast<unsigned long long>(tid),
                    it == t.threadNames.end() ? "-" : it->second.c_str(),
                    static_cast<unsigned long long>(ts.spans),
                    ts.busyUs / 1000.0,
                    wall_us > 0 ? 100.0 * ts.busyUs / wall_us : 0.0);
    }
    std::printf("\ntop %zu spans by duration:\n", by_dur.size());
    for (const std::size_t i : by_dur) {
        std::printf("  %-28s tid %-4llu ts %12.3f  dur %12.3f us\n",
                    t.spans[i].name.c_str(),
                    static_cast<unsigned long long>(t.spans[i].tid),
                    t.spans[i].tsUs, t.spans[i].durUs);
    }
    std::printf("\ncritical path (longest root, longest child chain):\n");
    for (std::size_t d = 0; d < critical.size(); ++d) {
        std::printf("  %*s%s (%.3f ms)\n", static_cast<int>(2 * d), "",
                    t.spans[critical[d]].name.c_str(),
                    t.spans[critical[d]].durUs / 1000.0);
    }
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: sigcomp_prof <validate|summarize> <trace.json>"
                 " [--top N] [--json]\n"
                 "  <trace.json> must be a regular file, not a pipe\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3)
        return usage();
    const std::string command = argv[1];
    const std::string path = argv[2];
    std::size_t top_n = 10;
    bool as_json = false;
    for (int i = 3; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--top" && i + 1 < argc) {
            top_n = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (arg == "--json") {
            as_json = true;
        } else {
            return usage();
        }
    }

    Trace trace;
    const std::string err = loadTrace(path, trace);
    if (!err.empty())
        return failValidation(err);

    if (command == "validate") {
        std::string why;
        if (nestSpans(trace, &why).empty() && !trace.spans.empty())
            return failValidation(why);
        std::map<std::uint64_t, std::uint64_t> per_track;
        for (const Span &s : trace.spans)
            per_track[s.tid] += 1;
        std::printf("valid: %zu span events, %zu metadata events, "
                    "%zu track(s)\n",
                    trace.spans.size(), trace.metaEvents,
                    per_track.size());
        return 0;
    }
    if (command == "summarize")
        return summarize(trace, top_n, as_json);
    return usage();
}

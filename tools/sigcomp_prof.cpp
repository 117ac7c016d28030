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
 * The parser is a minimal recursive-descent JSON reader (objects,
 * arrays, strings, numbers, bools, null) — enough for any valid
 * trace-event file, with no dependency beyond the standard library.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/json.h"

namespace
{

// ------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser.
// ------------------------------------------------------------------

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    // Vector of pairs, not a map: duplicate keys stay visible and
    // event objects are tiny.
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(const char *key) const
    {
        for (const auto &[k, v] : object) {
            if (k == key)
                return &v;
        }
        return nullptr;
    }
};

class JsonParser
{
  public:
    JsonParser(const char *text, std::size_t size)
        : cur_(text), end_(text + size)
    {
    }

    /** Parse one document; false (with error()) on malformed input. */
    bool
    parse(JsonValue &out)
    {
        if (!value(out))
            return false;
        skipWs();
        if (cur_ != end_)
            return fail("trailing bytes after the JSON document");
        return true;
    }

    const std::string &error() const { return error_; }

    /** 1-based line of the first error, for human-sized messages. */
    std::size_t errorLine() const { return errorLine_; }

  private:
    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = what;
            errorLine_ = line_;
        }
        return false;
    }

    void
    skipWs()
    {
        while (cur_ != end_ && (*cur_ == ' ' || *cur_ == '\t' ||
                                *cur_ == '\n' || *cur_ == '\r')) {
            if (*cur_ == '\n')
                ++line_;
            ++cur_;
        }
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (static_cast<std::size_t>(end_ - cur_) < n ||
            std::strncmp(cur_, word, n) != 0)
            return fail(std::string("expected '") + word + "'");
        cur_ += n;
        return true;
    }

    bool
    stringBody(std::string &out)
    {
        ++cur_; // opening quote
        while (cur_ != end_ && *cur_ != '"') {
            char c = *cur_++;
            if (c == '\\') {
                if (cur_ == end_)
                    return fail("unterminated escape");
                const char esc = *cur_++;
                switch (esc) {
                case '"': c = '"'; break;
                case '\\': c = '\\'; break;
                case '/': c = '/'; break;
                case 'b': c = '\b'; break;
                case 'f': c = '\f'; break;
                case 'n': c = '\n'; break;
                case 'r': c = '\r'; break;
                case 't': c = '\t'; break;
                case 'u': {
                    if (end_ - cur_ < 4)
                        return fail("truncated \\u escape");
                    // Pass the unit through as '?' — the summary
                    // never needs non-ASCII fidelity.
                    cur_ += 4;
                    c = '?';
                    break;
                }
                default:
                    return fail("unknown escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                return fail("raw control byte inside string");
            }
            out.push_back(c);
        }
        if (cur_ == end_)
            return fail("unterminated string");
        ++cur_; // closing quote
        return true;
    }

    bool
    value(JsonValue &out)
    {
        skipWs();
        if (cur_ == end_)
            return fail("unexpected end of input");
        switch (*cur_) {
        case '{': {
            out.type = JsonValue::Type::Object;
            ++cur_;
            skipWs();
            if (cur_ != end_ && *cur_ == '}') {
                ++cur_;
                return true;
            }
            for (;;) {
                skipWs();
                if (cur_ == end_ || *cur_ != '"')
                    return fail("expected object key");
                std::string key;
                if (!stringBody(key))
                    return false;
                skipWs();
                if (cur_ == end_ || *cur_ != ':')
                    return fail("expected ':' after key");
                ++cur_;
                JsonValue v;
                if (!value(v))
                    return false;
                out.object.emplace_back(std::move(key), std::move(v));
                skipWs();
                if (cur_ != end_ && *cur_ == ',') {
                    ++cur_;
                    continue;
                }
                if (cur_ != end_ && *cur_ == '}') {
                    ++cur_;
                    return true;
                }
                return fail("expected ',' or '}' in object");
            }
        }
        case '[': {
            out.type = JsonValue::Type::Array;
            ++cur_;
            skipWs();
            if (cur_ != end_ && *cur_ == ']') {
                ++cur_;
                return true;
            }
            for (;;) {
                JsonValue v;
                if (!value(v))
                    return false;
                out.array.push_back(std::move(v));
                skipWs();
                if (cur_ != end_ && *cur_ == ',') {
                    ++cur_;
                    continue;
                }
                if (cur_ != end_ && *cur_ == ']') {
                    ++cur_;
                    return true;
                }
                return fail("expected ',' or ']' in array");
            }
        }
        case '"':
            out.type = JsonValue::Type::String;
            return stringBody(out.string);
        case 't':
            out.type = JsonValue::Type::Bool;
            out.boolean = true;
            return literal("true");
        case 'f':
            out.type = JsonValue::Type::Bool;
            out.boolean = false;
            return literal("false");
        case 'n':
            out.type = JsonValue::Type::Null;
            return literal("null");
        default: {
            out.type = JsonValue::Type::Number;
            char *num_end = nullptr;
            out.number = std::strtod(cur_, &num_end);
            if (num_end == cur_ || num_end > end_)
                return fail("malformed number");
            cur_ = num_end;
            return true;
        }
        }
    }

    const char *cur_;
    const char *end_;
    std::size_t line_ = 1;
    std::string error_;
    std::size_t errorLine_ = 0;
};

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

/**
 * Load and structurally validate @p path into @p out. Returns an
 * empty string on success, else the reason the file is not a valid
 * trace-event profile.
 */
std::string
loadTrace(const std::string &path, Trace &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "cannot open '" + path + "'";
    std::string text;
    char buf[1 << 16];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0)
        text.append(buf, n);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error)
        return "read error on '" + path + "'";

    JsonValue root;
    JsonParser parser(text.data(), text.size());
    if (!parser.parse(root)) {
        return "JSON parse error near line " +
               std::to_string(parser.errorLine()) + ": " +
               parser.error();
    }
    if (root.type != JsonValue::Type::Object)
        return "top level is not an object";
    const JsonValue *events = root.find("traceEvents");
    if (events == nullptr || events->type != JsonValue::Type::Array)
        return "missing 'traceEvents' array";

    for (std::size_t i = 0; i < events->array.size(); ++i) {
        const JsonValue &e = events->array[i];
        const std::string at = "traceEvents[" + std::to_string(i) + "]";
        if (e.type != JsonValue::Type::Object)
            return at + " is not an object";
        const JsonValue *ph = e.find("ph");
        if (ph == nullptr || ph->type != JsonValue::Type::String)
            return at + " has no string 'ph'";
        const JsonValue *tid = e.find("tid");
        if (tid == nullptr || tid->type != JsonValue::Type::Number)
            return at + " has no numeric 'tid'";
        if (ph->string == "M") {
            ++out.metaEvents;
            const JsonValue *name = e.find("name");
            const JsonValue *args = e.find("args");
            if (name != nullptr && name->string == "thread_name" &&
                args != nullptr) {
                if (const JsonValue *tn = args->find("name")) {
                    out.threadNames[static_cast<std::uint64_t>(
                        tid->number)] = tn->string;
                }
            }
            continue;
        }
        if (ph->string != "X")
            return at + " has unsupported ph '" + ph->string + "'";
        const JsonValue *name = e.find("name");
        const JsonValue *ts = e.find("ts");
        const JsonValue *dur = e.find("dur");
        if (name == nullptr || name->type != JsonValue::Type::String ||
            name->string.empty())
            return at + " (complete event) has no span name";
        if (ts == nullptr || ts->type != JsonValue::Type::Number ||
            dur == nullptr || dur->type != JsonValue::Type::Number)
            return at + " (complete event) has no numeric ts/dur";
        if (ts->number < 0 || dur->number < 0)
            return at + " has negative ts or dur";
        Span s;
        s.name = name->string;
        s.tid = static_cast<std::uint64_t>(tid->number);
        s.tsUs = ts->number;
        s.durUs = dur->number;
        out.spans.push_back(std::move(s));
    }
    return "";
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
            sigcomp::json::appendEscaped(out, s);
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
                 " [--top N] [--json]\n");
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

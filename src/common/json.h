/**
 * @file
 * The repo's one JSON writer helper and its one JSON reader.
 *
 * Writing: every JSON writer (reports, plan documents, Chrome traces,
 * daemon replies, store tool output) escapes strings with
 * appendEscaped/writeString: quote and backslash are
 * backslash-escaped, control bytes below 0x20 become `\u00XX`
 * (lowercase hex), every other byte passes through. The string
 * writers build their document with append(), which prints numbers
 * in the exact bytes of printf's `%.Nf`, `%.17g` and `%llu`
 * (std::to_chars, plus an exact integer path for report-sized
 * `%.Nf`; tests/test_common.cpp compares them with snprintf).
 *
 * Reading: Reader is a strict streaming cursor for UNTRUSTED input
 * (plan documents, Chrome trace files). It builds no DOM: callers
 * drive parseObject/parseArray with callbacks and pull typed values,
 * skipping keys they ignore with skipValue. Duplicate keys,
 * non-ASCII text, strings over kMaxStringBytes and non-finite or
 * non-JSON numbers are refused; run depthWithinCap first to bound
 * nesting (and with it skipValue's recursion). Every failure is
 * classified into the ErrorKind taxonomy with the byte offset where
 * it was detected, and only the FIRST failure in input order is
 * kept. tests/fuzz_plan_json.cpp fuzzes the reader through the plan
 * codec, and skipValue (which the plan codec never calls) directly.
 *
 * Whole numbers: parseWholeNumber is the one strict digits-only parse
 * with an inclusive cap, behind Reader::parseU64 and every tool's
 * numeric flag (via ParallelExecutor::parseThreadCount for --threads).
 * Header-only.
 */

#ifndef SIGCOMP_COMMON_JSON_H_
#define SIGCOMP_COMMON_JSON_H_

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sigcomp::json
{

/** Append the escaped contents of @p s (no surrounding quotes). */
inline void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (const char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            out += "\\u00";
            out.push_back(kHex[u >> 4]);
            out.push_back(kHex[u & 0xf]);
        } else {
            out.push_back(c);
        }
    }
}

/** Write @p s to @p f as a quoted JSON string. */
inline void
writeString(std::FILE *f, std::string_view s)
{
    std::string out = "\"";
    appendEscaped(out, s);
    out.push_back('"');
    std::fwrite(out.data(), 1, out.size(), f);
}

/** A double printed as printf's `%.<digits>f`, digits <= 20. */
struct Fixed
{
    double v;
    int digits;
};

/** A double printed as printf's `%.17g`: round-trips through strtod. */
struct Exact
{
    double v;
};

/** A string printed quoted and escaped (see appendEscaped). */
struct Quoted
{
    std::string_view s;
};

namespace detail
{

inline void
appendOne(std::string &out, std::string_view s)
{
    out += s;
}

inline void
appendOne(std::string &out, char c)
{
    out.push_back(c);
}

/** Integers print as decimal (`%u`, `%llu`, `%zu`); plain char and
 * bool are excluded so neither prints as a number by accident. */
template <class T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, char> &&
             !std::is_same_v<T, bool>)
void
appendOne(std::string &out, T v)
{
    char buf[24];
    const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
    out.append(buf, r.ptr);
}

/** A bare double has no printf format: wrap it in Fixed or Exact. */
void appendOne(std::string &out, double v) = delete;

/**
 * %.Nf for |v| * 10^N below 2^52 and N <= 9, the values reports
 * print: the exact product of v's integer mantissa and 10^N, shifted
 * down by v's binary exponent and rounded half to even on the exact
 * remainder, as glibc rounds. False (nothing appended) otherwise.
 */
inline bool
appendFixedExact(std::string &out, double v, int digits)
{
    static constexpr std::uint64_t kPow10[] = {
        1,      10,      100,      1000,      10000,
        100000, 1000000, 10000000, 100000000, 1000000000};
    if (digits < 0 || digits > 9)
        return false;
    const std::uint64_t scale = kPow10[digits];
    const double a = std::fabs(v);
    if (!(a * static_cast<double>(scale) < 0x1p52))
        return false; // large, infinite or NaN
    // a == mant * 2^-shift exactly, and a < 2^52 makes shift >= 1.
    const auto bits = std::bit_cast<std::uint64_t>(a);
    const auto biased = static_cast<int>(bits >> 52);
    const std::uint64_t frac = bits & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t mant =
        biased == 0 ? frac : frac | (std::uint64_t{1} << 52);
    const int shift = 1075 - (biased == 0 ? 1 : biased);
    std::uint64_t n = 0;
    if (shift < 128) { // else a * 10^digits < 2^-74: rounds to 0
        using U128 = unsigned __int128;
        const U128 product = static_cast<U128>(mant) * scale;
        const U128 rest = product & ((U128{1} << shift) - 1);
        const U128 half = U128{1} << (shift - 1);
        n = static_cast<std::uint64_t>(product >> shift);
        if (rest > half || (rest == half && (n & 1) != 0))
            ++n;
    }
    if (std::signbit(v))
        out.push_back('-');
    char buf[24];
    std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, n / scale);
    out.append(buf, r.ptr);
    if (digits == 0)
        return true;
    out.push_back('.');
    r = std::to_chars(buf, buf + sizeof buf, n % scale);
    out.append(static_cast<std::size_t>(digits - (r.ptr - buf)), '0');
    out.append(buf, r.ptr);
    return true;
}

// to_chars formats as printf does in the C locale, with correct
// rounding of the exact binary value: the same bytes as glibc's
// "%.Nf" and "%.17g", including inf/nan and ties.
inline void
appendOne(std::string &out, Fixed f)
{
    if (appendFixedExact(out, f.v, f.digits))
        return;
    // %.Nf of DBL_MAX is 309 integer digits, sign, point and N more
    // (the writers print N = 2, 3 or 6).
    char buf[340];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, f.v, std::chars_format::fixed, f.digits);
    out.append(buf, r.ptr);
}

inline void
appendOne(std::string &out, Exact e)
{
    char buf[32];
    const std::to_chars_result r = std::to_chars(
        buf, buf + sizeof buf, e.v, std::chars_format::general, 17);
    out.append(buf, r.ptr);
}

inline void
appendOne(std::string &out, Quoted q)
{
    out.push_back('"');
    appendEscaped(out, q.s);
    out.push_back('"');
}

} // namespace detail

/**
 * Append each argument to @p out: strings and chars verbatim,
 * integers in decimal, Fixed/Exact doubles in their printf format,
 * Quoted strings escaped. The string writers (reports, plan
 * documents, energy blocks) print through this instead of fprintf.
 */
template <class... Args>
void
append(std::string &out, const Args &...args)
{
    (detail::appendOne(out, args), ...);
}

/**
 * Parse @p text as a whole decimal number in [0, @p max]: one or more
 * digits and nothing else (no sign, space or suffix). @p out is
 * written only on success.
 */
inline bool
parseWholeNumber(std::string_view text, std::uint64_t max,
                 std::uint64_t *out)
{
    if (text.empty())
        return false;
    std::uint64_t v = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        const auto digit = static_cast<std::uint64_t>(c - '0');
        if (digit > max || v > (max - digit) / 10)
            return false; // past max (and so never past 2^64 - 1)
        v = v * 10 + digit;
    }
    *out = v;
    return true;
}

/**
 * Failure taxonomy of the reader (and of plan ingestion, which
 * reports through it as analysis::PlanErrorKind). Every enum value is
 * exercised by tests/test_plan_json.cpp (enforced by sigcomp_lint's
 * error-taxonomy check).
 */
enum class ErrorKind : std::uint8_t
{
    None = 0,
    /** Malformed JSON: bad token, truncation, duplicate key, NaN. */
    Syntax,
    /** Well-formed JSON carrying a key the schema does not define. */
    UnknownField,
    /** A known key holding the wrong JSON type. */
    BadType,
    /** A value outside its documented cap (counts, lengths, ranges). */
    OutOfRange,
    /**
     * Valid but not expressible: unknown schema version, non-ASCII
     * text, or (on serialize) process-local plan state — profilers,
     * live cancel tokens, custom hierarchies.
     */
    Unsupported,
};

/** Canonical lower-case name ("syntax", "unknown-field", ...). */
inline std::string
errorKindName(ErrorKind k)
{
    switch (k) {
    case ErrorKind::None: return "none";
    case ErrorKind::Syntax: return "syntax";
    case ErrorKind::UnknownField: return "unknown-field";
    case ErrorKind::BadType: return "bad-type";
    case ErrorKind::OutOfRange: return "out-of-range";
    case ErrorKind::Unsupported: return "unsupported";
    }
    return "?";
}

/** One classified failure with its location. */
struct Error
{
    ErrorKind kind = ErrorKind::None;
    /** Byte offset into the input where the failure was detected
     * (0 for serialize-side and whole-input failures). */
    std::size_t offset = 0;
    std::string message;

    /** "\<kind\> at byte \<offset\>: \<message\>" for logs. */
    std::string
    render() const
    {
        return errorKindName(kind) + " at byte " +
               std::to_string(offset) + ": " + message;
    }
};

/** Bracket/brace nesting cap (a plan needs 5, a trace 3). */
constexpr std::size_t kMaxDepth = 12;
/** Cap on any single decoded string (OutOfRange beyond it). */
constexpr std::size_t kMaxStringBytes = 128;
/** Text is ASCII only: a byte or escaped code point at or above this
 * is Unsupported. */
constexpr unsigned kAsciiLimit = 0x80;

/** Bracket-depth pre-scan: the cheap whole-document nesting cap. */
inline bool
depthWithinCap(std::string_view json)
{
    std::size_t depth = 0;
    bool in_string = false;
    bool escaped = false;
    for (const char c : json) {
        if (in_string) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                in_string = false;
            continue;
        }
        if (c == '"')
            in_string = true;
        else if (c == '{' || c == '[') {
            if (++depth > kMaxDepth)
                return false;
        } else if (c == '}' || c == ']') {
            if (depth > 0)
                --depth;
        }
    }
    return true;
}

/**
 * Character-level cursor with first-failure capture. Every parse_*
 * method returns false once failed; callers bail out on false, so
 * the recorded error is always the FIRST one in input order.
 */
class Reader
{
  public:
    Reader(std::string_view s, Error *error)
        : s_(s), error_(error)
    {}

    bool failed() const { return failed_; }

    bool
    fail(ErrorKind kind, std::size_t offset, std::string message)
    {
        if (!failed_) {
            failed_ = true;
            if (error_ != nullptr)
                *error_ = {kind, offset, std::move(message)};
        }
        return false;
    }

    std::size_t pos() const { return pos_; }

    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    /** Next non-ws char without consuming; '\0' at end. */
    char
    peek()
    {
        skipWs();
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    bool
    consume(char c, const char *what)
    {
        skipWs();
        if (pos_ >= s_.size()) {
            return fail(ErrorKind::Syntax, pos_,
                        std::string("unexpected end of input, "
                                    "expected '") +
                            c + "' " + what);
        }
        if (s_[pos_] != c) {
            return fail(ErrorKind::Syntax, pos_,
                        std::string("expected '") + c + "' " + what +
                            ", got '" + s_[pos_] + "'");
        }
        ++pos_;
        return true;
    }

    bool
    atEnd()
    {
        skipWs();
        return pos_ >= s_.size();
    }

    bool
    parseString(std::string *out)
    {
        skipWs();
        const std::size_t start = pos_;
        if (pos_ >= s_.size() || s_[pos_] != '"') {
            return fail(ErrorKind::BadType, pos_, "expected a string");
        }
        ++pos_;
        // Fast path: a plain string (no escape, control or non-ASCII
        // byte) within the cap is one copy; anything else is decoded
        // byte by byte below, from the same position.
        for (std::size_t p = pos_; p < s_.size(); ++p) {
            const auto u = static_cast<unsigned char>(s_[p]);
            if (u == '"') {
                if (p - pos_ > kMaxStringBytes)
                    break;
                out->assign(s_.data() + pos_, p - pos_);
                pos_ = p + 1;
                return true;
            }
            if (u == '\\' || u < 0x20 || u >= kAsciiLimit)
                break;
        }
        std::string v;
        for (;;) {
            if (pos_ >= s_.size()) {
                return fail(ErrorKind::Syntax, pos_,
                            "unterminated string");
            }
            const char c = s_[pos_];
            const auto u = static_cast<unsigned char>(c);
            if (c == '"') {
                ++pos_;
                break;
            }
            if (u < 0x20) {
                return fail(ErrorKind::Syntax, pos_,
                            "unescaped control byte in string");
            }
            if (u >= kAsciiLimit) {
                return fail(ErrorKind::Unsupported, pos_,
                            "non-ASCII bytes are not supported");
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= s_.size()) {
                    return fail(ErrorKind::Syntax, pos_,
                                "unterminated escape");
                }
                const char e = s_[pos_++];
                switch (e) {
                case '"': v.push_back('"'); break;
                case '\\': v.push_back('\\'); break;
                case '/': v.push_back('/'); break;
                case 'b': v.push_back('\b'); break;
                case 'f': v.push_back('\f'); break;
                case 'n': v.push_back('\n'); break;
                case 'r': v.push_back('\r'); break;
                case 't': v.push_back('\t'); break;
                case 'u': {
                    if (pos_ + 4 > s_.size()) {
                        return fail(ErrorKind::Syntax, pos_,
                                    "truncated \\u escape");
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = s_[pos_ + static_cast<
                                                std::size_t>(i)];
                        unsigned d;
                        if (h >= '0' && h <= '9')
                            d = static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            d = static_cast<unsigned>(h - 'a') + 10;
                        else if (h >= 'A' && h <= 'F')
                            d = static_cast<unsigned>(h - 'A') + 10;
                        else
                            return fail(ErrorKind::Syntax,
                                        pos_ + static_cast<
                                                  std::size_t>(i),
                                        "bad \\u escape digit");
                        code = code * 16 + d;
                    }
                    if (code >= kAsciiLimit) {
                        return fail(ErrorKind::Unsupported, pos_,
                                    "non-ASCII \\u escape is not "
                                    "supported");
                    }
                    pos_ += 4;
                    v.push_back(static_cast<char>(code));
                    break;
                }
                default:
                    return fail(ErrorKind::Syntax, pos_ - 1,
                                "unknown escape");
                }
                continue;
            }
            v.push_back(c);
            ++pos_;
        }
        if (v.size() > kMaxStringBytes) {
            return fail(ErrorKind::OutOfRange, start,
                        "string longer than " +
                            std::to_string(kMaxStringBytes) +
                            " bytes");
        }
        *out = std::move(v);
        return true;
    }

    bool
    parseBool(bool *out)
    {
        skipWs();
        if (s_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            *out = true;
            return true;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            *out = false;
            return true;
        }
        return fail(ErrorKind::BadType, pos_, "expected true or false");
    }

    /** The raw characters of one number token (JSON grammar-ish). */
    bool
    numberToken(std::string_view *token, std::size_t *start)
    {
        skipWs();
        *start = pos_;
        std::size_t p = pos_;
        auto isNumChar = [&](char c) {
            return (c >= '0' && c <= '9') || c == '-' || c == '+' ||
                   c == '.' || c == 'e' || c == 'E';
        };
        while (p < s_.size() && isNumChar(s_[p]))
            ++p;
        if (p == pos_) {
            return fail(ErrorKind::BadType, pos_, "expected a number");
        }
        *token = s_.substr(pos_, p - pos_);
        pos_ = p;
        return true;
    }

    /** Non-negative integer with an inclusive cap. */
    bool
    parseU64(std::uint64_t *out, std::uint64_t max, const char *what)
    {
        std::string_view tok;
        std::size_t start = 0;
        if (!numberToken(&tok, &start))
            return false;
        if (tok.find_first_of(".eE") != std::string_view::npos) {
            return fail(ErrorKind::BadType, start,
                        std::string(what) + " must be an integer");
        }
        if (tok[0] == '-' || tok[0] == '+') {
            return fail(ErrorKind::OutOfRange, start,
                        std::string(what) +
                            " must be a non-negative integer");
        }
        if (tok.find_first_not_of("0123456789") != std::string_view::npos)
            return fail(ErrorKind::Syntax, start, "malformed integer");
        if (!parseWholeNumber(tok, max, out)) {
            return fail(ErrorKind::OutOfRange, start,
                        std::string(what) + " exceeds its cap (" +
                            std::to_string(max) + ")");
        }
        return true;
    }

    bool
    parseDouble(double *out, const char *what)
    {
        std::string_view tok;
        std::size_t start = 0;
        if (!numberToken(&tok, &start))
            return false;
        const std::string text(tok); // strtod needs a terminator
        char *end = nullptr;
        const double v = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size() || end == text.c_str()) {
            return fail(ErrorKind::Syntax, start, "malformed number");
        }
        // Underflow to a subnormal is fine (strtod returns the
        // nearest value); only non-finite results are refused, so
        // everything the %.17g writer emits parses back.
        if (!std::isfinite(v)) {
            return fail(ErrorKind::OutOfRange, start,
                        std::string(what) + " is out of range");
        }
        *out = v;
        return true;
    }

    /**
     * Drive one object: "{" key:value... "}" with duplicate-key
     * rejection. @p field consumes the value of each key (offset =
     * where the key token started) and returns false on failure.
     */
    template <typename FieldFn>
    bool
    parseObject(FieldFn &&field)
    {
        if (!consume('{', "to open an object"))
            return false;
        if (peek() == '}') {
            ++pos_;
            return true;
        }
        // This object's keys are seen_[first..]: nested objects push
        // theirs above and drop them on the way out, so one buffer
        // serves the whole document.
        const std::size_t first = seen_.size();
        for (;;) {
            skipWs();
            const std::size_t key_off = pos_;
            std::string key;
            if (!parseString(&key)) {
                // A non-string key is a syntax problem, not a type
                // problem with a known field's value.
                if (error_ != nullptr &&
                    error_->kind == ErrorKind::BadType)
                    error_->kind = ErrorKind::Syntax;
                return false;
            }
            if (std::find(seen_.begin() +
                              static_cast<std::ptrdiff_t>(first),
                          seen_.end(), key) != seen_.end()) {
                return fail(ErrorKind::Syntax, key_off,
                            "duplicate key \"" + key + "\"");
            }
            if (!consume(':', "after an object key"))
                return false;
            if (!field(key, key_off))
                return false;
            seen_.push_back(std::move(key));
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                seen_.resize(first);
                return true;
            }
            return fail(ErrorKind::Syntax, pos_,
                        "expected ',' or '}' in object");
        }
    }

    /** Drive one array with an element cap. */
    template <typename ElemFn>
    bool
    parseArray(std::size_t max, const char *what, ElemFn &&elem)
    {
        skipWs();
        const std::size_t start = pos_;
        if (pos_ >= s_.size() || s_[pos_] != '[') {
            return fail(ErrorKind::BadType, pos_,
                        std::string("expected an array ") + what);
        }
        ++pos_;
        if (peek() == ']') {
            ++pos_;
            return true;
        }
        std::size_t count = 0;
        for (;;) {
            if (++count > max) {
                return fail(ErrorKind::OutOfRange, start,
                            std::string(what) + " has more than " +
                                std::to_string(max) + " entries");
            }
            if (!elem())
                return false;
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return true;
            }
            return fail(ErrorKind::Syntax, pos_,
                        "expected ',' or ']' in array");
        }
    }

    /**
     * Consume one value of any type, for keys a caller ignores.
     * Containers are read with the same rules (duplicate keys are
     * still refused), so recursion is bounded by depthWithinCap.
     */
    bool
    skipValue()
    {
        const char c = peek();
        if (c == '{') {
            return parseObject([this](const std::string &, std::size_t) {
                return skipValue();
            });
        }
        if (c == '[') {
            return parseArray(std::numeric_limits<std::size_t>::max(),
                              "", [this] { return skipValue(); });
        }
        if (c == '"') {
            std::string ignored;
            return parseString(&ignored);
        }
        if (c == 't' || c == 'f') {
            bool ignored = false;
            return parseBool(&ignored);
        }
        if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return true;
        }
        if (c != '-' && (c < '0' || c > '9'))
            return fail(ErrorKind::Syntax, pos_, "expected a value");
        double ignored = 0.0;
        return parseDouble(&ignored, "number");
    }

  private:
    std::string_view s_;
    Error *error_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    /** Keys of the objects being parsed, outermost first. */
    std::vector<std::string> seen_;
};

} // namespace sigcomp::json

#endif // SIGCOMP_COMMON_JSON_H_

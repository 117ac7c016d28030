/**
 * @file
 * The one JSON string escaper every JSON writer uses (reports, plan
 * documents, Chrome traces, daemon replies, store tool output):
 * quote and backslash are backslash-escaped, control bytes below 0x20
 * become `\u00XX` (lowercase hex), every other byte passes through.
 * Header-only.
 */

#ifndef SIGCOMP_COMMON_JSON_H_
#define SIGCOMP_COMMON_JSON_H_

#include <cstdio>
#include <string>
#include <string_view>

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

} // namespace sigcomp::json

#endif // SIGCOMP_COMMON_JSON_H_

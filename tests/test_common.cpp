/**
 * @file
 * Unit tests for the common library: bit utilities, stats, RNG,
 * table writer, JSON string escaper, whole-number parse and reader.
 */

#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>

#include "common/bitutil.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace sigcomp
{
namespace
{

TEST(BitUtil, WordByteExtraction)
{
    const Word w = 0x12345678;
    EXPECT_EQ(wordByte(w, 0), 0x78);
    EXPECT_EQ(wordByte(w, 1), 0x56);
    EXPECT_EQ(wordByte(w, 2), 0x34);
    EXPECT_EQ(wordByte(w, 3), 0x12);
}

TEST(BitUtil, SetWordByte)
{
    Word w = 0x12345678;
    w = setWordByte(w, 0, 0xaa);
    EXPECT_EQ(w, 0x123456aau);
    w = setWordByte(w, 3, 0x00);
    EXPECT_EQ(w, 0x003456aau);
}

TEST(BitUtil, SignFill)
{
    EXPECT_EQ(signFill(0x7f), 0x00);
    EXPECT_EQ(signFill(0x80), 0xff);
    EXPECT_EQ(signFill(0x00), 0x00);
    EXPECT_EQ(signFill(0xff), 0xff);
}

TEST(BitUtil, SignExtend)
{
    EXPECT_EQ(signExtend(0xff, 8), 0xffffffffu);
    EXPECT_EQ(signExtend(0x7f, 8), 0x7fu);
    EXPECT_EQ(signExtend(0x8000, 16), 0xffff8000u);
    EXPECT_EQ(signExtend(0x1234, 16), 0x1234u);
}

TEST(BitUtil, BitFieldRoundTrip)
{
    Word w = 0;
    w = setBitField(w, 26, 6, 0x23);
    w = setBitField(w, 21, 5, 0x1f);
    w = setBitField(w, 0, 16, 0xbeef);
    EXPECT_EQ(bitField(w, 26, 6), 0x23u);
    EXPECT_EQ(bitField(w, 21, 5), 0x1fu);
    EXPECT_EQ(bitField(w, 0, 16), 0xbeefu);
}

TEST(BitUtil, SignificantBytes)
{
    EXPECT_EQ(significantBytes(0x00000000), 1u);
    EXPECT_EQ(significantBytes(0x00000004), 1u);
    EXPECT_EQ(significantBytes(0xffffffff), 1u); // -1 = sign ext of 0xff
    EXPECT_EQ(significantBytes(0x0000007f), 1u);
    EXPECT_EQ(significantBytes(0x00000080), 2u); // 0x80 would sign-extend
    EXPECT_EQ(significantBytes(0xffffff80), 1u);
    EXPECT_EQ(significantBytes(0xfffff504), 2u); // paper example
    EXPECT_EQ(significantBytes(0x00012345), 3u);
    EXPECT_EQ(significantBytes(0x10000009), 4u);
}

TEST(BitUtil, SignificantHalves)
{
    EXPECT_EQ(significantHalves(0x00001234), 1u);
    EXPECT_EQ(significantHalves(0xffff8000), 1u);
    EXPECT_EQ(significantHalves(0x00008000), 2u);
    EXPECT_EQ(significantHalves(0x12340000), 2u);
}

TEST(BitUtil, DivCeil)
{
    EXPECT_EQ(divCeil(0, 4), 0u);
    EXPECT_EQ(divCeil(1, 4), 1u);
    EXPECT_EQ(divCeil(4, 4), 1u);
    EXPECT_EQ(divCeil(5, 4), 2u);
}

TEST(Stats, DistributionRankingAndFractions)
{
    Distribution<int> d;
    d.record(7, 70);
    d.record(3, 20);
    d.record(9, 10);
    EXPECT_EQ(d.total(), 100u);
    EXPECT_DOUBLE_EQ(d.fraction(7), 0.70);
    EXPECT_DOUBLE_EQ(d.fraction(42), 0.0);
    const auto ranked = d.ranked();
    ASSERT_EQ(ranked.size(), 3u);
    EXPECT_EQ(ranked[0].first, 7);
    EXPECT_EQ(ranked[1].first, 3);
    EXPECT_EQ(ranked[2].first, 9);
}

TEST(Stats, PercentSaving)
{
    EXPECT_DOUBLE_EQ(percentSaving(70, 100), 30.0);
    EXPECT_DOUBLE_EQ(percentSaving(100, 100), 0.0);
    EXPECT_DOUBLE_EQ(percentSaving(0, 100), 100.0);
    EXPECT_DOUBLE_EQ(percentSaving(5, 0), 0.0);
}

TEST(Rng, Deterministic)
{
    Rng a(1234), b(1234);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, RangeBounds)
{
    Rng r(99);
    for (int i = 0; i < 1000; ++i) {
        const SWord v = r.range(-5, 7);
        EXPECT_GE(v, -5);
        EXPECT_LE(v, 7);
    }
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Table, AlignedRendering)
{
    TextTable t({"name", "value"});
    t.addRow({"cpi", "1.50"});
    t.beginRow().cell("saving").cell(33.333, 1).endRow();
    const std::string s = t.toString();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("33.3"), std::string::npos);
    EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, FormatFixed)
{
    EXPECT_EQ(formatFixed(1.005, 2), "1.00"); // printf rounding
    EXPECT_EQ(formatFixed(2.0, 0), "2");
    EXPECT_EQ(formatFixed(-1.5, 1), "-1.5");
}

TEST(Json, EscapesQuoteBackslashAndControlBytes)
{
    std::string out = "prefix:";
    json::appendEscaped(out, std::string_view("a\"b\\c\n\t\x1f\0d", 10));
    EXPECT_EQ(out, "prefix:a\\\"b\\\\c\\u000a\\u0009\\u001f\\u0000d");
}

TEST(Json, PassesPrintableAndHighBytesThrough)
{
    std::string out;
    json::appendEscaped(out, "plain /text\x7f\xc3\xa9");
    EXPECT_EQ(out, "plain /text\x7f\xc3\xa9");
}

TEST(Json, ParseWholeNumberTakesDigitsOnlyUpToMax)
{
    std::uint64_t v = 0;
    EXPECT_TRUE(json::parseWholeNumber("65535", 65535, &v));
    EXPECT_EQ(v, 65535u);
    EXPECT_FALSE(json::parseWholeNumber("65536", 65535, &v));
    EXPECT_TRUE(
        json::parseWholeNumber("18446744073709551615", UINT64_MAX, &v));
    EXPECT_EQ(v, UINT64_MAX);
    EXPECT_FALSE(
        json::parseWholeNumber("18446744073709551616", UINT64_MAX, &v));
    EXPECT_FALSE(json::parseWholeNumber("5", 3, &v));
    EXPECT_TRUE(json::parseWholeNumber("0", 0, &v));
    for (const char *bad : {"x", "", "-0", "1e3", "0x10", "12 "})
        EXPECT_FALSE(json::parseWholeNumber(bad, UINT64_MAX, &v)) << bad;
}

TEST(Json, WriteStringQuotes)
{
    std::FILE *f = std::tmpfile();
    ASSERT_NE(f, nullptr);
    json::writeString(f, "say \"hi\"\r");
    json::writeString(f, "");
    std::rewind(f);
    char buf[64] = {};
    const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    EXPECT_EQ(std::string(buf, n), "\"say \\\"hi\\\"\\u000d\"\"\"");
}

// ---- json::append: the string writers' number formats ---------------

/** @p v through snprintf's @p fmt: the bytes append() must match. */
std::string
printed(const char *fmt, double v)
{
    char buf[400];
    const int n = std::snprintf(buf, sizeof buf, fmt, v);
    return std::string(buf, static_cast<std::size_t>(n));
}

/** The first format (if any) where append() and snprintf differ. */
std::string
formatMismatch(double v)
{
    static const struct
    {
        int digits; // 0: Exact
        const char *fmt;
    } formats[] = {{2, "%.2f"}, {3, "%.3f"}, {6, "%.6f"}, {0, "%.17g"}};
    thread_local std::string got;
    char want[400];
    for (const auto &f : formats) {
        got.clear();
        if (f.digits == 0)
            json::append(got, json::Exact{v});
        else
            json::append(got, json::Fixed{v, f.digits});
        const int n = std::snprintf(want, sizeof want, f.fmt, v);
        if (got != std::string_view(want, static_cast<std::size_t>(n)))
            return std::string(f.fmt) + ": " + got;
    }
    return "";
}

TEST(JsonAppend, DoublesMatchPrintfOnEdgeCases)
{
    const double inf = std::numeric_limits<double>::infinity();
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double cases[] = {
        // Decimal ties and near-ties at 2, 3 and 6 digits.
        0.125, 2.675, 99.995, 0.5, 1.5, 2.5, 0.005, 0.0005, 1.0005,
        0.0000005, 1.005, 12345.6785, -0.125, -2.675, -99.995,
        // Signed zeros, subnormals, the normal range's ends.
        0.0, -0.0, std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        2.2250738585072009e-308, std::numeric_limits<double>::min(),
        std::numeric_limits<double>::max(),
        -std::numeric_limits<double>::max(), 1e300, -1e300,
        // Where %.17g switches between fixed and exponent form.
        1e-5, 1e-4, 0.1, 1e16, 1e17, 1e21, 123456789012345678.0,
        0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0,
        // Non-finite values.
        inf, -inf, nan, -nan,
    };
    for (const double v : cases)
        EXPECT_EQ(formatMismatch(v), "") << printed("%a", v);
}

TEST(JsonAppend, DoublesMatchPrintfOnRandomValues)
{
    // One value in 64 is an arbitrary bit pattern (every exponent,
    // subnormals, NaN payloads; %.6f of a huge one is 300+ digits and
    // slow to print, so they are kept few). The rest are where report
    // numbers live: random mantissas at magnitudes 2^-40..2^60,
    // decimals with three digits, and binary fractions, where printf
    // ties live.
    std::mt19937_64 rng(0x5eed);
    constexpr std::size_t kValues = 1u << 20;
    std::size_t mismatches = 0;
    std::string first;
    for (std::size_t i = 0; i < kValues; ++i) {
        double v = 0.0;
        const std::uint64_t bits = rng();
        if (i % 64 == 0) {
            std::memcpy(&v, &bits, sizeof v);
        } else if (i % 3 == 0) {
            v = std::ldexp(static_cast<double>(bits >> 11) * 0x1.0p-53,
                           static_cast<int>(bits % 101) - 40);
        } else if (i % 3 == 1) {
            v = static_cast<double>(bits % 100000000) / 1000.0;
        } else {
            v = static_cast<double>(bits % (1u << 24)) / 64.0 -
                static_cast<double>(1u << 17);
        }
        const std::string why = formatMismatch(v);
        if (!why.empty() && mismatches++ == 0)
            first = printed("%a", v) + " " + why;
    }
    EXPECT_EQ(mismatches, 0u) << "first: " << first;
}

TEST(JsonAppend, IntegersStringsAndChars)
{
    std::string out;
    const std::uint8_t funct = 63;
    json::append(out, "a", ' ', 0u, ',', UINT64_MAX, ',', funct, ',',
                 std::size_t{42}, ',', -7, ',', std::string("s"), ',',
                 json::Quoted{"q\"\n"});
    EXPECT_EQ(out, "a 0,18446744073709551615,63,42,-7,s,\"q\\\"\\u000a\"");
    char buf[32];
    const unsigned long long values[] = {0, 9, 10, 4294967295, 4294967296,
                                         ULLONG_MAX};
    for (const unsigned long long v : values) {
        std::string got;
        json::append(got, v);
        std::snprintf(buf, sizeof buf, "%llu", v);
        EXPECT_EQ(got, buf);
    }
}

/** Skip one value of @p doc; the failure (if any) lands in @p error. */
bool
skipOne(std::string_view doc, json::Error *error)
{
    json::Reader r(doc, error);
    return r.skipValue() && r.atEnd();
}

TEST(JsonReader, SkipValueConsumesAnyValue)
{
    for (const char *doc :
         {"null", "true", "false", "-12", "-1.5e-3", "2E+8", "\"A\\u0041\"",
          "[]", "{}", "[1, [null, [[]]], {\"a\": [-2, {}]}, \"x\"]",
          " {\"a\": {\"b\": [true, null]}, \"c\": -0.5} "}) {
        json::Error error;
        EXPECT_TRUE(skipOne(doc, &error)) << doc << ": " << error.render();
    }
}

TEST(JsonReader, SkipValueRefusesTruncatedAndNonJsonValues)
{
    struct Case
    {
        std::string doc;
        json::ErrorKind kind;
        std::size_t offset;
    };
    const Case cases[] = {
        {"[1, {\"a\": ", json::ErrorKind::Syntax, 10},
        {"{\"a\": [null", json::ErrorKind::Syntax, 11},
        {"nan", json::ErrorKind::Syntax, 0},
        {"[0x10]", json::ErrorKind::Syntax, 2},
        {"-", json::ErrorKind::Syntax, 0},
        {"1e999", json::ErrorKind::OutOfRange, 0},
        {"{\"k\": {\"a\": 1, \"a\": 2}}", json::ErrorKind::Syntax, 15},
        {"[\"\\u00e9\"]", json::ErrorKind::Unsupported, 4},
    };
    for (const Case &c : cases) {
        json::Error error;
        EXPECT_FALSE(skipOne(c.doc, &error)) << c.doc;
        EXPECT_EQ(error.kind, c.kind) << c.doc << ": " << error.render();
        EXPECT_EQ(error.offset, c.offset) << c.doc << ": " << error.render();
    }
}

TEST(JsonReader, SkipValueReportsTheFirstFailureInInputOrder)
{
    // A bad token, then a non-ASCII escape, then a duplicate key:
    // only the first is reported.
    const std::string doc =
        "{\"a\": [1, x], \"b\": \"\\u00ff\", \"a\": 2}";
    json::Error error;
    EXPECT_FALSE(skipOne(doc, &error));
    EXPECT_EQ(error.kind, json::ErrorKind::Syntax);
    EXPECT_EQ(error.offset, doc.find('x'));
    EXPECT_EQ(error.render(), "syntax at byte " +
                                  std::to_string(doc.find('x')) +
                                  ": expected a value");
}

} // namespace
} // namespace sigcomp

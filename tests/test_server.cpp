/**
 * @file
 * Serving-layer tests: the SHA-256 primitive, the strict HTTP
 * request parser (every HttpErrorKind pinned), plan fingerprinting,
 * and the Daemon end to end over the in-process memory transport —
 * routing, tenancy, one run per request (a repeated plan is a run
 * answered from resident result memos with no replay), identical
 * plans from concurrent clients (TSan shard), disconnect cancellation
 * of the hung-up request's own run only, freeing its admission slot
 * and never firing after the reply, thread-count bit-identity of the
 * served report rows, tenants serving from one shared RAM tier (and
 * one tenant's eviction dropping the trace for all), the accept loop
 * reaping finished handler threads, sequential connections reusing
 * one parked handler, and the cold reply to the golden plan over
 * loopback TCP (tests/golden/daemon_response.json, CI's daemon job
 * in process).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/plan_json.h"
#include "analysis/report.h"
#include "analysis/session.h"
#include "common/net.h"
#include "common/sha256.h"
#include "isa/assembler.h"
#include "server/daemon.h"
#include "server/http.h"
#include "store/trace_store.h"
#include "tests/scratch_dir.h"
#include "workloads/workload.h"

namespace sigcomp
{
namespace
{

namespace fs = std::filesystem;

using analysis::StudyPlan;
using pipeline::Design;
using server::Daemon;
using server::DaemonConfig;
using server::HttpErrorKind;
using server::HttpRequestParser;

// ---- SHA-256 ---------------------------------------------------------

TEST(Sha256, FipsVectors)
{
    // FIPS 180-4 / NIST CAVP reference digests.
    EXPECT_EQ(Sha256::hex(""),
              "e3b0c44298fc1c149afbf4c8996fb924"
              "27ae41e4649b934ca495991b7852b855");
    EXPECT_EQ(Sha256::hex("abc"),
              "ba7816bf8f01cfea414140de5dae2223"
              "b00361a396177a9cb410ff61f20015ad");
    EXPECT_EQ(Sha256::hex("abcdbcdecdefdefgefghfghighijhijk"
                          "ijkljklmklmnlmnomnopnopq"),
              "248d6a61d20638b8e5c026930c3e6039"
              "a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, ChunkingInvariant)
{
    // Same bytes, any update() granularity, same digest — including
    // splits straddling the 64-byte block boundary.
    const std::string msg(150, 'x');
    const std::string oneShot = Sha256::hex(msg);
    for (std::size_t split : {1u, 63u, 64u, 65u, 127u, 128u}) {
        Sha256 h;
        h.update(std::string_view(msg).substr(0, split));
        h.update(std::string_view(msg).substr(split));
        EXPECT_EQ(h.hexDigest(), oneShot) << "split at " << split;
    }
}

// ---- HTTP parser -----------------------------------------------------

/** One-shot parse helper. */
HttpRequestParser::Status
parseAll(std::string_view bytes, HttpRequestParser *parser)
{
    return parser->consume(bytes);
}

TEST(HttpParser, ParsesGetRequest)
{
    HttpRequestParser p;
    EXPECT_EQ(p.error().kind, HttpErrorKind::None);
    const auto st = parseAll("GET /healthz HTTP/1.1\r\n"
                             "Host: sigcompd\r\n\r\n",
                             &p);
    ASSERT_EQ(st, HttpRequestParser::Status::Done);
    EXPECT_EQ(p.request().method, "GET");
    EXPECT_EQ(p.request().target, "/healthz");
    EXPECT_EQ(p.request().version, "HTTP/1.1");
    ASSERT_NE(p.request().header("host"), nullptr);
    EXPECT_EQ(*p.request().header("host"), "sigcompd");
    EXPECT_TRUE(p.request().body.empty());
}

TEST(HttpParser, ParsesPostBodyAndNormalizesHeaders)
{
    HttpRequestParser p;
    const auto st =
        parseAll("POST /v1/run HTTP/1.1\r\n"
                 "X-Sigcomp-Tenant:  alice \r\n"
                 "Content-Length: 4\r\n\r\nbody",
                 &p);
    ASSERT_EQ(st, HttpRequestParser::Status::Done);
    EXPECT_EQ(p.request().body, "body");
    // Names lowercase, OWS stripped from values.
    ASSERT_NE(p.request().header("x-sigcomp-tenant"), nullptr);
    EXPECT_EQ(*p.request().header("x-sigcomp-tenant"), "alice");
    EXPECT_EQ(p.request().header("absent"), nullptr);
}

TEST(HttpParser, IncrementalFeedMatchesOneShot)
{
    const std::string wire = "POST /v1/run HTTP/1.1\r\n"
                             "Content-Length: 11\r\n\r\nhello world";
    for (std::size_t chunk : {1u, 2u, 7u}) {
        HttpRequestParser p;
        HttpRequestParser::Status st =
            HttpRequestParser::Status::NeedMore;
        for (std::size_t i = 0; i < wire.size(); i += chunk) {
            ASSERT_NE(st, HttpRequestParser::Status::Error);
            st = p.consume(
                std::string_view(wire).substr(i, chunk));
        }
        ASSERT_EQ(st, HttpRequestParser::Status::Done)
            << "chunk " << chunk;
        EXPECT_EQ(p.request().body, "hello world");
    }
}

TEST(HttpParser, SyntaxErrors)
{
    const struct
    {
        const char *wire;
        const char *what;
    } kCases[] = {
        {"GET /x\r\n\r\n", "request line missing version"},
        {"GET  /x HTTP/1.1\r\n\r\n", "double space"},
        {"GET /x HTTP/1.1\nHost: a\r\n\r\n", "bare LF"},
        {"GET /x HTTP/1.1\r\nno-colon\r\n\r\n", "malformed header"},
        {"GET /x HTTP/1.1\r\nA: 1\r\nA: 2\r\n\r\n",
         "duplicate header"},
        {"POST /x HTTP/1.1\r\nContent-Length: 2x\r\n\r\nab",
         "malformed Content-Length"},
        {"GET \x01 HTTP/1.1\r\n\r\n", "control byte in target"},
        {"GET /x HTTP/1.1\r\n\r\nextra", "bytes after request"},
    };
    for (const auto &c : kCases) {
        HttpRequestParser p;
        EXPECT_EQ(parseAll(c.wire, &p),
                  HttpRequestParser::Status::Error)
            << c.what;
        EXPECT_EQ(p.error().kind, HttpErrorKind::Syntax) << c.what;
        EXPECT_EQ(p.errorStatusCode(), 400) << c.what;
    }
}

TEST(HttpParser, TooLargeErrors)
{
    {
        HttpRequestParser p;
        std::string line = "GET /";
        line.append(server::kMaxRequestLineBytes, 'a');
        line += " HTTP/1.1\r\n\r\n";
        EXPECT_EQ(parseAll(line, &p),
                  HttpRequestParser::Status::Error);
        EXPECT_EQ(p.error().kind, HttpErrorKind::TooLarge);
        EXPECT_EQ(p.errorStatusCode(), 413);
    }
    {
        HttpRequestParser p;
        std::string wire = "GET /x HTTP/1.1\r\n";
        for (std::size_t i = 0; i <= server::kMaxHeaders; ++i) {
            wire += 'h';
            wire += std::to_string(i);
            wire += ": v\r\n";
        }
        wire += "\r\n";
        EXPECT_EQ(parseAll(wire, &p),
                  HttpRequestParser::Status::Error);
        EXPECT_EQ(p.error().kind, HttpErrorKind::TooLarge);
    }
    {
        HttpRequestParser p;
        const std::string wire =
            "POST /x HTTP/1.1\r\nContent-Length: " +
            std::to_string(server::kMaxBodyBytes + 1) + "\r\n\r\n";
        EXPECT_EQ(parseAll(wire, &p),
                  HttpRequestParser::Status::Error);
        EXPECT_EQ(p.error().kind, HttpErrorKind::TooLarge);
    }
}

TEST(HttpParser, UnsupportedMethodVersionEncoding)
{
    {
        HttpRequestParser p;
        EXPECT_EQ(parseAll("PUT /x HTTP/1.1\r\n\r\n", &p),
                  HttpRequestParser::Status::Error);
        EXPECT_EQ(p.error().kind, HttpErrorKind::UnsupportedMethod);
        EXPECT_EQ(p.errorStatusCode(), 405);
    }
    {
        HttpRequestParser p;
        EXPECT_EQ(parseAll("GET /x HTTP/2.0\r\n\r\n", &p),
                  HttpRequestParser::Status::Error);
        EXPECT_EQ(p.error().kind, HttpErrorKind::UnsupportedVersion);
        EXPECT_EQ(p.errorStatusCode(), 505);
    }
    {
        // Transfer-Encoding: we do not implement it -> 501.
        HttpRequestParser p;
        EXPECT_EQ(parseAll("POST /x HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n",
                           &p),
                  HttpRequestParser::Status::Error);
        EXPECT_EQ(p.error().kind, HttpErrorKind::UnsupportedEncoding);
        EXPECT_EQ(p.errorStatusCode(), 501);
    }
    {
        // POST without any length framing -> 411.
        HttpRequestParser p;
        EXPECT_EQ(parseAll("POST /x HTTP/1.1\r\n\r\n", &p),
                  HttpRequestParser::Status::Error);
        EXPECT_EQ(p.error().kind, HttpErrorKind::UnsupportedEncoding);
        EXPECT_EQ(p.errorStatusCode(), 411);
    }
}

TEST(HttpParser, ErrorRenderNamesTheKind)
{
    HttpRequestParser p;
    parseAll("PUT /x HTTP/1.1\r\n\r\n", &p);
    EXPECT_NE(p.error().render().find("unsupported-method"),
              std::string::npos);
}

// ---- plan fingerprint ------------------------------------------------

StudyPlan
cpiPlan(std::vector<std::string> workloads)
{
    // Named config: the braced temporary trips a gcc-12
    // maybe-uninitialized false positive under -Werror.
    pipeline::PipelineConfig config;
    StudyPlan plan;
    plan.workloads(std::move(workloads))
        .cpi({Design::Baseline32}, config);
    return plan;
}

TEST(PlanFingerprint, ContentAddressedAndTokenBlind)
{
    std::string fpA;
    std::string fpB;
    analysis::PlanError error;
    ASSERT_TRUE(analysis::planFingerprint(cpiPlan({"rawcaudio"}),
                                          &fpA, &error));
    EXPECT_EQ(fpA.size(), 64u);

    // Same content, fresh object: same fingerprint.
    ASSERT_TRUE(analysis::planFingerprint(cpiPlan({"rawcaudio"}),
                                          &fpB, &error));
    EXPECT_EQ(fpA, fpB);

    // A live cancel token is a runtime handle, not content.
    CancelSource source;
    StudyPlan tokened = cpiPlan({"rawcaudio"});
    tokened.cancel(source.token());
    ASSERT_TRUE(analysis::planFingerprint(tokened, &fpB, &error));
    EXPECT_EQ(fpA, fpB);

    // Different content: different fingerprint.
    ASSERT_TRUE(analysis::planFingerprint(cpiPlan({"rawdaudio"}),
                                          &fpB, &error));
    EXPECT_NE(fpA, fpB);

    // The fingerprint IS the digest of the canonical wire bytes.
    std::string wire;
    ASSERT_TRUE(analysis::writePlanJson(cpiPlan({"rawcaudio"}), &wire,
                                        &error));
    EXPECT_EQ(fpA, Sha256::hex(wire));
}

TEST(PlanFingerprint, RefusesUnserializablePlans)
{
    pipeline::PipelineConfig config;
    config.memory.l1d.sizeBytes *= 2; // no wire form
    StudyPlan plan;
    plan.workloads({"rawcaudio"}).cpi({Design::Baseline32}, config);
    std::string fp;
    analysis::PlanError error;
    EXPECT_FALSE(analysis::planFingerprint(plan, &fp, &error));
    EXPECT_EQ(error.kind, analysis::PlanErrorKind::Unsupported);
    EXPECT_TRUE(fp.empty());
}

// ---- daemon end-to-end over memory conns -----------------------------

std::uint64_t
metricValue(telemetry::Registry &reg, const std::string &name)
{
    return reg.snapshot().value(name);
}

/** Serve one raw request through @p daemon; return status + body. */
int
exchange(Daemon &daemon, const std::string &request, std::string *body,
         std::string *fullResponse = nullptr)
{
    auto [serverEnd, clientEnd] = net::memoryConnPair();
    std::shared_ptr<net::Conn> server(std::move(serverEnd));
    std::thread handler(
        [&daemon, server] { daemon.serveConn(server); });
    EXPECT_TRUE(
        clientEnd->writeAll(request.data(), request.size()).ok());
    std::string response;
    char buf[4096];
    for (;;) {
        std::size_t got = 0;
        if (!clientEnd->read(buf, sizeof(buf), &got).ok() || got == 0)
            break;
        response.append(buf, got);
    }
    handler.join();
    if (fullResponse != nullptr)
        *fullResponse = response;
    const std::size_t blank = response.find("\r\n\r\n");
    if (response.compare(0, 5, "HTTP/") != 0 ||
        blank == std::string::npos) {
        return -1;
    }
    *body = response.substr(blank + 4);
    return std::atoi(response.c_str() + response.find(' ') + 1);
}

std::string
postPlanRequest(const StudyPlan &plan, const std::string &tenant = "")
{
    std::string json;
    analysis::PlanError error;
    EXPECT_TRUE(analysis::writePlanJson(plan, &json, &error))
        << error.render();
    std::string req = "POST /v1/run HTTP/1.1\r\n";
    if (!tenant.empty())
        req += "X-Sigcomp-Tenant: " + tenant + "\r\n";
    req += "Content-Length: " + std::to_string(json.size()) +
           "\r\n\r\n" + json;
    return req;
}

/** RAM-only daemon with a capped capture: fast unit-test engine. */
DaemonConfig
testConfig()
{
    DaemonConfig config;
    config.session.storeDir.clear();
    config.session.captureLimit = 20000;
    return config;
}

TEST(DaemonRoutes, HealthStatsAndErrors)
{
    Daemon daemon(testConfig());
    std::string body;

    EXPECT_EQ(exchange(daemon, "GET /healthz HTTP/1.1\r\n\r\n", &body),
              200);
    EXPECT_EQ(body, "ok\n");

    EXPECT_EQ(exchange(daemon, "GET /statsz HTTP/1.1\r\n\r\n", &body),
              200);
    EXPECT_NE(body.find("sigcomp-daemon-stats-v2"), std::string::npos);
    EXPECT_NE(body.find("\"daemon.runs\": 0"), std::string::npos);
    EXPECT_NE(body.find("\"tenants\": 0"), std::string::npos);
    EXPECT_EQ(body.find("store_fingerprint"), std::string::npos);

    EXPECT_EQ(exchange(daemon, "GET /nope HTTP/1.1\r\n\r\n", &body),
              404);
    EXPECT_NE(body.find("sigcomp-daemon-error-v1"), std::string::npos);

    EXPECT_EQ(
        exchange(daemon,
                 "POST /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n",
                 &body),
        405);

    // Framing errors answer with the parser's classified status.
    EXPECT_EQ(exchange(daemon, "PUT /x HTTP/1.1\r\n\r\n", &body), 405);
    EXPECT_NE(body.find("unsupported-method"), std::string::npos);

    // Bad plan JSON: a classified sigcomp-daemon-error-v1 reply.
    EXPECT_EQ(exchange(daemon,
                       "POST /v1/run HTTP/1.1\r\n"
                       "Content-Length: 9\r\n\r\nnot json!",
                       &body),
              400);
    EXPECT_NE(body.find("syntax"), std::string::npos);
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.plan_errors"), 1u);

    // Bad tenant.
    StudyPlan plan = cpiPlan({"rawcaudio"});
    EXPECT_EQ(exchange(daemon, postPlanRequest(plan, "NOT_VALID!"),
                       &body),
              400);
    EXPECT_NE(body.find("bad-tenant"), std::string::npos);
}

TEST(DaemonRoutes, PlanCannotChooseTheThreadCount)
{
    // The thread count is the daemon's (--threads), never the
    // client's: a plan carrying a "threads" key is refused before any
    // engine work, so an untrusted request cannot size a thread pool.
    Daemon daemon(testConfig());
    std::string json;
    analysis::PlanError error;
    ASSERT_TRUE(
        analysis::writePlanJson(cpiPlan({"rawcaudio"}), &json, &error));
    const std::size_t at = json.find("  \"workloads\"");
    ASSERT_NE(at, std::string::npos);
    json.insert(at, "  \"threads\": 512,\n");
    const std::string request = "POST /v1/run HTTP/1.1\r\n"
                                "Content-Length: " +
                                std::to_string(json.size()) +
                                "\r\n\r\n" + json;
    std::string body;
    EXPECT_EQ(exchange(daemon, request, &body), 400);
    EXPECT_NE(body.find("unknown-field"), std::string::npos) << body;
    EXPECT_NE(body.find("threads"), std::string::npos) << body;
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.plan_errors"), 1u);
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"), 0u);
}

/** The report body minus its run-shape lines: threads, engine counts
 * with wall_ms, and telemetry (the test_session lifecycleBytes idiom,
 * applied to served bytes). */
std::string
servedRowBytes(const std::string &body)
{
    std::string kept;
    std::size_t start = 0;
    while (start < body.size()) {
        std::size_t end = body.find('\n', start);
        if (end == std::string::npos)
            end = body.size();
        const std::string_view line(body.data() + start, end - start);
        if (line.find("\"threads\"") == std::string_view::npos &&
            line.find("\"engine\"") == std::string_view::npos &&
            line.find("\"telemetry\"") == std::string_view::npos) {
            kept.append(line);
            kept.push_back('\n');
        }
        start = end + 1;
    }
    return kept;
}

/** The unsigned integer after `"key": ` in a reply body. */
std::uint64_t
bodyField(const std::string &body, const std::string &key)
{
    const std::string needle = "\"" + key + "\": ";
    const std::size_t at = body.find(needle);
    EXPECT_NE(at, std::string::npos) << key << " not in " << body;
    if (at == std::string::npos)
        return 0;
    return std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
}

/** The engine line's opening of a reply that loaded and replayed nothing. */
constexpr const char *kMemoAnswerEngine =
    "\"engine\": {\"replay_passes\": 0, \"captures\": 0, "
    "\"store_loads\": 0,";

TEST(DaemonCache, SecondIdenticalPostIsAMemoAnswer)
{
    Daemon daemon(testConfig());
    const std::string request = postPlanRequest(cpiPlan({"rawcaudio"}));

    std::string first;
    ASSERT_EQ(exchange(daemon, request, &first), 200);
    EXPECT_NE(first.find("sigcomp-suite-report-v4"), std::string::npos);
    EXPECT_EQ(bodyField(first, "captures"), 1u);

    // The repeat is a run of its own, answered from the result memos
    // the first left resident: the same rows, no capture, no load and
    // no replay.
    std::string second;
    ASSERT_EQ(exchange(daemon, request, &second), 200);
    EXPECT_EQ(servedRowBytes(second), servedRowBytes(first));
    EXPECT_NE(second.find(kMemoAnswerEngine), std::string::npos)
        << second;
    EXPECT_EQ(daemon.tenantSession("default").cache().captures(), 1u);
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"), 2u);
}

TEST(DaemonCache, PhaseCountersChargeEachRunPhase)
{
    Daemon daemon(testConfig());
    const std::string request = postPlanRequest(cpiPlan({"rawcaudio"}));
    auto ns = [&](const char *name) {
        return metricValue(daemon.metrics(), name);
    };
    const char *const phases[] = {"daemon.parse_ns", "daemon.run_ns",
                                  "daemon.serialize_ns",
                                  "daemon.reply_ns"};

    std::string body;
    ASSERT_EQ(exchange(daemon, request, &body), 200);
    std::vector<std::uint64_t> first;
    for (const char *phase : phases) {
        EXPECT_GT(ns(phase), 0u) << phase;
        first.push_back(ns(phase));
    }
    std::size_t nanosCounters = 0;
    for (const telemetry::SnapshotMetric &m :
         daemon.metrics().snapshot().metrics) {
        if (m.name.ends_with("_ns")) {
            EXPECT_EQ(m.unit, telemetry::Unit::Nanos) << m.name;
            ++nanosCounters;
        }
    }
    EXPECT_EQ(nanosCounters, std::size(phases));

    // A repeated plan is a run like any other: it charges every phase
    // again, run and serialize included.
    ASSERT_EQ(exchange(daemon, request, &body), 200);
    for (std::size_t i = 0; i < std::size(phases); ++i)
        EXPECT_GT(ns(phases[i]), first[i]) << phases[i];
}

TEST(DaemonCache, DistinctPlansAndTenantsShareTheCache)
{
    Daemon daemon(testConfig());
    std::string bodyA;
    std::string bodyB;
    ASSERT_EQ(exchange(daemon,
                       postPlanRequest(cpiPlan({"rawcaudio"}), "alice"),
                       &bodyA),
              200);
    // Same plan from another tenant: answered from the result memos
    // alice's run left in the shared trace cache (tenants share the
    // immutable store, so nothing leaks).
    ASSERT_EQ(exchange(daemon,
                       postPlanRequest(cpiPlan({"rawcaudio"}), "bob"),
                       &bodyB),
              200);
    EXPECT_EQ(servedRowBytes(bodyB), servedRowBytes(bodyA));
    EXPECT_NE(bodyB.find(kMemoAnswerEngine), std::string::npos) << bodyB;
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"), 2u);

    // A different plan replays its own trace.
    ASSERT_EQ(exchange(daemon,
                       postPlanRequest(cpiPlan({"rawdaudio"}), "bob"),
                       &bodyB),
              200);
    EXPECT_NE(servedRowBytes(bodyA), servedRowBytes(bodyB));
    EXPECT_EQ(bodyField(bodyB, "replay_passes"), 1u);
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"), 3u);
}

// ---- the shared RAM tier: one resident copy per daemon ---------------

/**
 * A fresh store in @p name's scratch directory holding @p workloads'
 * segments at testConfig()'s capture limit, and a read-only daemon
 * config serving it.
 */
DaemonConfig
prewarmedStoreConfig(const std::string &name,
                     const std::vector<std::string> &workloads)
{
    DaemonConfig config = testConfig();
    const fs::path dir = test::scratchDir(name);
    fs::remove_all(dir);
    config.session.storeDir = dir.string();
    analysis::Session seeder(analysis::SessionConfig{
        .storeDir = config.session.storeDir,
        .captureLimit = config.session.captureLimit});
    seeder.prewarm(workloads);
    return config;
}

/** POST cpiPlan(@p workloads) as @p tenant with its own deadline. */
std::string
postWithDeadline(Daemon &daemon, const std::vector<std::string> &workloads,
                 const std::string &tenant, std::uint64_t deadlineMs,
                 bool evict = false)
{
    // The deadline changes no row.
    StudyPlan plan = cpiPlan(workloads);
    plan.deadlineMs(deadlineMs).evictAfterReplay(evict);
    std::string body;
    EXPECT_EQ(exchange(daemon, postPlanRequest(plan, tenant), &body), 200)
        << body;
    return body;
}

/** Render /statsz and return the named daemon gauge. */
std::int64_t
statszGauge(Daemon &daemon, const std::string &name)
{
    std::string body;
    EXPECT_EQ(exchange(daemon, "GET /statsz HTTP/1.1\r\n\r\n", &body),
              200);
    EXPECT_NE(body.find("\"" + name + "\""), std::string::npos) << body;
    return daemon.metrics().gauge(name).value();
}

TEST(DaemonSharedTier, TenantsServeFromOneResidentCopy)
{
    const std::vector<std::string> names = {"rawcaudio", "rawdaudio"};
    const DaemonConfig config =
        prewarmedStoreConfig("sigcomp-daemon-shared-tier", names);
    Daemon daemon(config);

    std::vector<std::string> bodies;
    std::size_t bytesAfterOne = 0;
    std::int64_t statszBytesAfterOne = 0;
    std::int64_t statszAnnexBytesAfterOne = 0;
    for (const char *tenant : {"a", "b", "c"}) {
        bodies.push_back(
            postWithDeadline(daemon, names, tenant, 600000 + bodies.size()));
        if (bodies.size() == 1) {
            bytesAfterOne = daemon.tenantSession("a").cache().memoryBytes();
            statszBytesAfterOne =
                statszGauge(daemon, "daemon.resident_trace_bytes");
            statszAnnexBytesAfterOne =
                statszGauge(daemon, "daemon.resident_annex_bytes");
        }
    }
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"), 3u);

    // The first tenant loads every trace; the others find them, with
    // their result memos, already resident.
    EXPECT_EQ(bodyField(bodies[0], "store_loads"), names.size());
    for (std::size_t k = 1; k < bodies.size(); ++k) {
        EXPECT_EQ(bodyField(bodies[k], "captures"), 0u) << k;
        EXPECT_EQ(bodyField(bodies[k], "store_loads"), 0u) << k;
        EXPECT_EQ(servedRowBytes(bodies[k]), servedRowBytes(bodies[0]))
            << k;
    }

    analysis::TraceCache &cache = daemon.tenantSession("a").cache();
    EXPECT_EQ(&cache, &daemon.tenantSession("b").cache());
    EXPECT_EQ(&cache, &daemon.tenantSession("c").cache());
    EXPECT_GT(bytesAfterOne, 0u);
    EXPECT_EQ(cache.memoryBytes(), bytesAfterOne)
        << "tenants must not hold private copies of the traces";

    // /statsz reads the same shared tier, annexes included.
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_traces"),
              static_cast<std::int64_t>(names.size()));
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_trace_bytes"),
              static_cast<std::int64_t>(bytesAfterOne));
    EXPECT_EQ(statszBytesAfterOne,
              static_cast<std::int64_t>(bytesAfterOne));
    // ... and the annexes' share of it: the quanta records and result
    // memos the plan left on the traces.
    EXPECT_GT(statszAnnexBytesAfterOne, 0);
    EXPECT_LT(statszAnnexBytesAfterOne, statszBytesAfterOne);
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_annex_bytes"),
              static_cast<std::int64_t>(cache.annexBytes()));
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_annex_bytes"),
              statszAnnexBytesAfterOne);
    fs::remove_all(config.session.storeDir);
}

TEST(DaemonSharedTier, OneTenantsEvictionDropsTheTraceForEveryTenant)
{
    // evict_after_replay bounds the daemon's trace memory, not one
    // tenant's: the trace it drops is the one every tenant shares.
    const std::vector<std::string> names = {"rawcaudio"};
    const DaemonConfig config =
        prewarmedStoreConfig("sigcomp-daemon-shared-evict", names);
    Daemon daemon(config);

    const std::string first = postWithDeadline(daemon, names, "a", 600001);
    EXPECT_EQ(bodyField(first, "store_loads"), 1u);
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_traces"), 1);

    // Another tenant's evicting plan is answered from a's memos, then
    // drops the shared trace.
    const std::string evicting =
        postWithDeadline(daemon, names, "b", 600002, /*evict=*/true);
    EXPECT_EQ(bodyField(evicting, "store_loads"), 0u);
    EXPECT_EQ(servedRowBytes(evicting), servedRowBytes(first));
    EXPECT_FALSE(daemon.tenantSession("a").cache().contains("rawcaudio"));
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_traces"), 0);
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_trace_bytes"), 0);
    EXPECT_EQ(statszGauge(daemon, "daemon.resident_annex_bytes"), 0);

    // A third tenant's next miss reloads it and gets the same rows.
    const std::string reloaded =
        postWithDeadline(daemon, names, "c", 600003);
    EXPECT_EQ(bodyField(reloaded, "captures"), 0u);
    EXPECT_EQ(bodyField(reloaded, "store_loads"), 1u);
    EXPECT_EQ(servedRowBytes(reloaded), servedRowBytes(first));
    fs::remove_all(config.session.storeDir);
}

TEST(DaemonDeterminism, ServedRowsAreThreadCountInvariant)
{
    DaemonConfig serialConfig = testConfig();
    serialConfig.session.threads = 1;
    DaemonConfig wideConfig = testConfig();
    wideConfig.session.threads = 4;
    Daemon serial(serialConfig);
    Daemon wide(wideConfig);
    const std::string request =
        postPlanRequest(cpiPlan({"rawcaudio", "rawdaudio"}));

    std::string bodySerial;
    std::string bodyWide;
    ASSERT_EQ(exchange(serial, request, &bodySerial), 200);
    ASSERT_EQ(exchange(wide, request, &bodyWide), 200);
    EXPECT_NE(bodySerial.find("\"threads\": 1,"), std::string::npos);
    EXPECT_NE(bodyWide.find("\"threads\": 4,"), std::string::npos);
    EXPECT_EQ(servedRowBytes(bodySerial), servedRowBytes(bodyWide))
        << "study rows served by the daemon must not depend on the "
           "thread count";
}

// ---- concurrency: identical plans under parallel clients -----------

TEST(DaemonConcurrency, ParallelIdenticalPlansServeTheSameRows)
{
    Daemon daemon(testConfig());
    const std::string reqA =
        postPlanRequest(cpiPlan({"rawcaudio"}));
    const std::string reqB =
        postPlanRequest(cpiPlan({"rawdaudio"}));

    constexpr int kClientsPerPlan = 4;
    std::vector<std::string> bodiesA(kClientsPerPlan);
    std::vector<std::string> bodiesB(kClientsPerPlan);
    std::vector<int> statusA(kClientsPerPlan, 0);
    std::vector<int> statusB(kClientsPerPlan, 0);
    {
        std::vector<std::thread> clients;
        for (int i = 0; i < kClientsPerPlan; ++i) {
            clients.emplace_back([&, i] {
                statusA[i] = exchange(daemon, reqA, &bodiesA[i]);
            });
            clients.emplace_back([&, i] {
                statusB[i] = exchange(daemon, reqB, &bodiesB[i]);
            });
        }
        for (std::thread &t : clients)
            t.join();
    }

    for (int i = 0; i < kClientsPerPlan; ++i) {
        EXPECT_EQ(statusA[i], 200);
        EXPECT_EQ(statusB[i], 200);
        // Concurrent runs of one plan differ in wall_ms and engine
        // counts, never in a row.
        EXPECT_EQ(servedRowBytes(bodiesA[i]), servedRowBytes(bodiesA[0]))
            << "client " << i;
        EXPECT_EQ(servedRowBytes(bodiesB[i]), servedRowBytes(bodiesB[0]))
            << "client " << i;
    }
    EXPECT_NE(servedRowBytes(bodiesA[0]), servedRowBytes(bodiesB[0]));

    // Every client ran its own plan.
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"),
              2u * kClientsPerPlan);
}

// ---- disconnect cancellation -----------------------------------------

/** A program that spins long enough for the watcher to act. */
isa::Program
spinProgram()
{
    namespace reg = isa::reg;
    isa::Assembler a;
    a.label("main");
    a.li(reg::t0, 0);
    a.li(reg::t1, 1);
    a.label("loop");
    a.addu(reg::t0, reg::t0, reg::t1);
    a.j("loop");
    return a.finish("spin");
}

/** A trivial program: load, compare, exit — a few instructions. */
isa::Program
tinyProgram()
{
    namespace reg = isa::reg;
    isa::Assembler a;
    a.label("main");
    a.li(reg::a0, 7);
    a.li(reg::a1, 7);
    a.assertEq();
    a.exitProgram();
    return a.finish("tiny");
}

TEST(DaemonDisconnect, HangupCancelsTheRunAndFreesTheSlot)
{
    DaemonConfig config = testConfig();
    // The spin workload runs to the capture cap; make that far
    // longer than the watcher needs to notice the hangup.
    config.session.captureLimit = 200u * 1000u * 1000u;
    config.session.maxConcurrentPlans = 1;
    config.session.maxQueuedPlans = 0; // reject (not queue) at capacity
    Daemon daemon(config);
    daemon.tenantSession("default").addWorkload("spin", spinProgram());
    daemon.tenantSession("default").addWorkload("tiny", tinyProgram());

    const std::string request = postPlanRequest(cpiPlan({"spin"}));

    auto [serverEnd, clientEnd] = net::memoryConnPair();
    std::shared_ptr<net::Conn> server(std::move(serverEnd));
    std::thread handler(
        [&daemon, server] { daemon.serveConn(server); });
    ASSERT_TRUE(
        clientEnd->writeAll(request.data(), request.size()).ok());
    // Give the daemon a moment to start the run, then hang up.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    clientEnd->closeConn();
    handler.join(); // returns once the cancelled run unwinds

    // The watcher increments the counter right after firing the
    // cancel; give its store a moment to land.
    for (int i = 0; i < 200; ++i) {
        if (metricValue(daemon.metrics(),
                        "daemon.disconnect_cancels") != 0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(
        metricValue(daemon.metrics(), "daemon.disconnect_cancels"),
        1u);

    // The dead client's admission slot (maxConcurrentPlans = 1!) is
    // free again: a fresh request sails through.
    std::string body;
    EXPECT_EQ(exchange(daemon, postPlanRequest(cpiPlan({"tiny"})),
                       &body),
              200)
        << "slot not freed after disconnect cancellation";
}

/** Poll @p daemon's counter until it reaches @p want (or ~10 s). */
std::uint64_t
awaitCounter(Daemon &daemon, const std::string &name, std::uint64_t want)
{
    for (int i = 0; i < 1000; ++i) {
        if (metricValue(daemon.metrics(), name) >= want)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return metricValue(daemon.metrics(), name);
}

TEST(DaemonDisconnect, HangupCancelsOnlyThatClientsRun)
{
    DaemonConfig config = testConfig();
    // Long enough that a run outlasts many watcher passes.
    config.session.captureLimit = 3u * 1000u * 1000u;
    Daemon daemon(config);
    daemon.tenantSession("default").addWorkload("spin", spinProgram());
    const std::string request = postPlanRequest(cpiPlan({"spin"}));

    // A client that hangs up as soon as it has sent the plan. Its run
    // is cancelled on the watcher's next pass.
    auto [serverEnd, clientEnd] = net::memoryConnPair();
    std::shared_ptr<net::Conn> server(std::move(serverEnd));
    ASSERT_TRUE(
        clientEnd->writeAll(request.data(), request.size()).ok());
    clientEnd->closeConn();
    std::thread hungUp([&daemon, server] { daemon.serveConn(server); });
    // No ASSERT from here to the joins: they must run.
    EXPECT_EQ(awaitCounter(daemon, "daemon.runs", 1), 1u);

    // The same plan from a client that stays, sent while the first
    // run may still be going. It gets a run of its own, which the
    // other client's hangup must not touch.
    std::string body;
    int status = 0;
    std::thread stays(
        [&] { status = exchange(daemon, request, &body); });

    EXPECT_EQ(awaitCounter(daemon, "daemon.disconnect_cancels", 1), 1u)
        << "the hung-up client's run ended before a watcher pass";
    hungUp.join();
    stays.join();
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"), 2u);
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.disconnect_cancels"),
              1u);

    // The client that stayed got the whole report.
    EXPECT_EQ(status, 200) << body;
    EXPECT_NE(body.find("\"cancelled\": false"), std::string::npos)
        << body;
    EXPECT_NE(body.find("{\"benchmark\": \"spin\""), std::string::npos)
        << body;
}

TEST(DaemonDisconnect, HangupAfterTheReplyCancelsNothing)
{
    Daemon daemon(testConfig());
    // exchange() hangs up once it has read the whole reply.
    for (const char *workload : {"rawcaudio", "rawdaudio", "epic"}) {
        std::string body;
        ASSERT_EQ(exchange(daemon, postPlanRequest(cpiPlan({workload})),
                           &body),
                  200)
            << body;
    }
    // Several watcher passes later, nothing was cancelled.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.runs"), 3u);
    EXPECT_EQ(metricValue(daemon.metrics(), "daemon.disconnect_cancels"),
              0u);
}

TEST(DaemonDisconnect, CancelledWriterLeavesStoreDoctorClean)
{
    const fs::path dir = test::scratchDir("sigcomp-daemon-store");
    fs::remove_all(dir);

    DaemonConfig config = testConfig();
    config.session.storeDir = dir.string();
    config.session.readOnly = false; // the cancelled-writer path
    // Long enough that the hangup usually lands mid-capture (ad-hoc
    // programs never persist, so a REAL suite workload is the only
    // way to put a writer in the cancel's path).
    config.session.captureLimit = 5u * 1000u * 1000u;
    Daemon daemon(config);

    const std::string request =
        postPlanRequest(cpiPlan({"rawcaudio"}));
    auto [serverEnd, clientEnd] = net::memoryConnPair();
    std::shared_ptr<net::Conn> server(std::move(serverEnd));
    std::thread handler(
        [&daemon, server] { daemon.serveConn(server); });
    ASSERT_TRUE(
        clientEnd->writeAll(request.data(), request.size()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    clientEnd->closeConn();
    handler.join();

    // Whatever the cancel interrupted, the store holds no damage: no
    // partial segments (saves are atomic), no orphaned temp files,
    // and everything present verifies.
    const store::TraceStore ts(dir.string());
    EXPECT_EQ(ts.cleanOrphanTemps(), 0u);
    for (const std::string &name : ts.list())
        EXPECT_TRUE(ts.verify(name, nullptr)) << name;
    fs::remove_all(dir);
}

// ---- the golden reply over loopback TCP ----------------------------

TEST(DaemonGolden, ColdReplyOverTcpMatchesTheGolden)
{
    // CI's daemon job, in process: a fresh store prewarmed at
    // `sigcomp_store prewarm --max-instrs 200000`, a `--threads 4`
    // daemon on an ephemeral loopback port, the golden plan POSTed
    // once and its wall times zeroed as `sigcomp_client --zero-wall`
    // does. The reply's store.load_bytes histogram sums the file
    // sizes of the two segments the plan loads, so a change to the
    // segment bytes fails here, not only in CI.
    std::string plan;
    {
        std::ifstream in(std::string(SIGCOMP_TEST_DATA_DIR) +
                         "/golden/study_plan.json");
        plan.assign(std::istreambuf_iterator<char>(in), {});
    }
    // The plan's 2.5 s deadline goes: it changes no byte of a complete
    // reply, and a sanitizer build can run longer than that, which
    // would turn the reply into a partial report. CI's daemon job
    // serves the plan with it.
    const std::string deadline = "  \"deadline_ms\": 2500,\n";
    const std::size_t deadline_at = plan.find(deadline);
    ASSERT_NE(deadline_at, std::string::npos);
    plan.erase(deadline_at, deadline.size());
    const std::string request =
        "POST /v1/run HTTP/1.1\r\nHost: sigcompd\r\nContent-Length: " +
        std::to_string(plan.size()) + "\r\n\r\n" + plan;

    const fs::path dir = test::scratchDir("sigcomp-daemon-golden");
    fs::remove_all(dir);
    constexpr DWord kCaptureLimit = 200000;
    {
        analysis::SessionConfig prewarm;
        prewarm.storeDir = dir.string();
        prewarm.captureLimit = kCaptureLimit;
        analysis::Session(prewarm).prewarm(workloads::Suite::names());
    }

    DaemonConfig config;
    config.session.storeDir = dir.string();
    config.session.captureLimit = kCaptureLimit;
    config.session.threads = 4;
    Daemon daemon(config);
    std::string why;
    const std::unique_ptr<net::Listener> listener =
        net::listenTcp("127.0.0.1", 0, &why);
    ASSERT_NE(listener, nullptr) << why;
    std::string response;
    std::thread serving([&] { daemon.serve(*listener); });
    // No ASSERT until serving is joined.
    if (const std::unique_ptr<net::Conn> conn =
            net::connectTcp("127.0.0.1", listener->port(), &why)) {
        EXPECT_TRUE(conn->writeAll(request.data(), request.size()).ok());
        char buf[4096];
        for (;;) {
            std::size_t got = 0;
            if (!conn->read(buf, sizeof(buf), &got).ok() || got == 0)
                break;
            response.append(buf, got);
        }
    } else {
        ADD_FAILURE() << why;
    }
    daemon.requestStop();
    listener->stopListening();
    serving.join();
    fs::remove_all(dir);

    ASSERT_EQ(response.compare(0, 13, "HTTP/1.1 200 "), 0) << response;
    const std::size_t blank = response.find("\r\n\r\n");
    ASSERT_NE(blank, std::string::npos);
    const std::string body =
        analysis::zeroWallMs(response.substr(blank + 4));

    std::ifstream in(std::string(SIGCOMP_TEST_DATA_DIR) +
                     "/golden/daemon_response.json");
    const std::string golden(std::istreambuf_iterator<char>(in), {});
    // Report the first differing line, not two whole reports.
    std::istringstream got_lines(body), want_lines(golden);
    std::string got, want;
    for (unsigned line = 1;; ++line) {
        const bool more_got = !!std::getline(got_lines, got);
        const bool more_want = !!std::getline(want_lines, want);
        if (!more_got && !more_want)
            break;
        ASSERT_EQ(got, want)
            << "tests/golden/daemon_response.json line " << line
            << " differs (a deliberate change to segment bytes re-pins "
               "the store.load_bytes histogram)";
    }
}

/**
 * Lines of /proc/self/maps: every unjoined thread keeps its stack
 * (and guard page) mapped, so this counts leaked handlers even after
 * their tasks have exited.
 */
std::size_t
mappingCount()
{
    std::ifstream maps("/proc/self/maps");
    std::size_t n = 0;
    for (std::string line; std::getline(maps, line);)
        ++n;
    return n;
}

/** Live tasks of this process ("Threads:" in /proc/self/status). */
std::size_t
threadCount()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("Threads:", 0) == 0)
            return std::stoul(line.substr(8));
    }
    return 0;
}

/**
 * threadCount() once it has stopped moving: a thread joined by an
 * earlier test can still be counted for a moment while the kernel
 * tears it down, so poll (boundedly) until two reads 5 ms apart agree.
 */
std::size_t
settledThreadCount()
{
    std::size_t last = threadCount();
    for (int i = 0; i < 200; ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        const std::size_t now = threadCount();
        if (now == last)
            return now;
        last = now;
    }
    return last;
}

/**
 * Hands out @p n memory connections whose client end has already
 * hung up, then reports an orderly shutdown; samples the process's
 * threads and mappings at every accept.
 */
class HangupListener : public net::Listener
{
  public:
    explicit HangupListener(unsigned n) : left_(n) {}

    std::unique_ptr<net::Conn>
    acceptConn(EnvStatus *) override
    {
        peakThreads = std::max(peakThreads, threadCount());
        peakMappings = std::max(peakMappings, mappingCount());
        if (left_ == 0)
            return nullptr;
        --left_;
        auto [server_end, client_end] = net::memoryConnPair();
        client_end->closeConn();
        return std::move(server_end);
    }

    void stopListening() override {}
    std::uint16_t port() const override { return 0; }

    std::size_t peakThreads = 0;
    std::size_t peakMappings = 0;

  private:
    unsigned left_;
};

TEST(DaemonServe, FinishedHandlersAreJoinedWhileServing)
{
    // Thousands of connections that close at once: without reaping,
    // every finished handler's stack stays mapped until shutdown
    // (~32k connections exhaust the map limit and thread creation
    // fails with EAGAIN).
    constexpr unsigned kConns = 3000;
    Daemon daemon(testConfig());
    const std::size_t base_threads = threadCount();
    const std::size_t base_mappings = mappingCount();
    HangupListener listener(kConns);
    daemon.serve(listener);

    EXPECT_LT(listener.peakThreads, base_threads + 256);
    EXPECT_LT(listener.peakMappings, base_mappings + 512)
        << "finished handler threads were not joined";
}

/**
 * Hands out @p n memory connections, each carrying a GET /healthz,
 * and hands out the next only after the daemon has answered the
 * previous one and closed it.
 */
class SequentialListener : public net::Listener
{
  public:
    explicit SequentialListener(unsigned n) : left_(n) {}

    std::unique_ptr<net::Conn>
    acceptConn(EnvStatus *) override
    {
        if (client_ != nullptr) {
            std::string response;
            char buf[256];
            std::size_t got = 0;
            while (client_->read(buf, sizeof(buf), &got).ok() && got != 0)
                response.append(buf, got);
            if (response.find("\r\n\r\nok\n") != std::string::npos)
                ++answered;
            client_.reset();
        }
        if (left_ == 0)
            return nullptr;
        --left_;
        auto [server_end, client_end] = net::memoryConnPair();
        const std::string request = "GET /healthz HTTP/1.1\r\n\r\n";
        EXPECT_TRUE(
            client_end->writeAll(request.data(), request.size()).ok());
        client_ = std::move(client_end);
        return std::move(server_end);
    }

    void stopListening() override {}
    std::uint16_t port() const override { return 0; }

    unsigned answered = 0;

  private:
    unsigned left_;
    std::unique_ptr<net::Conn> client_;
};

TEST(DaemonServe, SequentialConnectionsReuseAParkedHandler)
{
    // One connection at a time: the handler that served the last
    // one is parked (or about to park) when the next arrives, so
    // serving 200 of them spawns at most two threads.
    constexpr unsigned kConns = 200;
    Daemon daemon(testConfig());
    const std::size_t base_threads = settledThreadCount();
    SequentialListener listener(kConns);
    daemon.serve(listener);

    EXPECT_EQ(listener.answered, kConns);
    const telemetry::Snapshot snap = daemon.metrics().snapshot();
    EXPECT_GE(snap.value("daemon.handler_spawns"), 1u);
    EXPECT_LE(snap.value("daemon.handler_spawns"), 2u);
    EXPECT_EQ(snap.value("daemon.requests"), kConns);

    // serve() joins its parked handlers before returning. A joined
    // thread can still be counted for a moment while the kernel
    // tears it down, so wait (boundedly) for the count to settle.
    for (int i = 0; i < 200 && threadCount() > base_threads; ++i)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_EQ(threadCount(), base_threads)
        << "parked handler threads outlived serve()";
}

// The full EnvFault taxonomy is pinned by test_fault.cpp; the server
// transport reports through the same EnvStatus values, pinned here
// for the memory transport's peer-closed path.
TEST(NetMemoryConn, PeerCloseSemantics)
{
    auto [a, b] = net::memoryConnPair();
    ASSERT_TRUE(a->writeAll("ping", 4).ok());
    char buf[8];
    std::size_t got = 0;
    ASSERT_TRUE(b->read(buf, sizeof(buf), &got).ok());
    EXPECT_EQ(std::string(buf, got), "ping");
    EXPECT_FALSE(a->peerClosed());

    b->closeConn();
    // Writes to a closed peer fault with the Env taxonomy.
    const EnvStatus st = a->writeAll("x", 1);
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.fault, EnvFault::Other);
    EXPECT_TRUE(a->peerClosed());
    // Reads see orderly EOF.
    EXPECT_TRUE(a->read(buf, sizeof(buf), &got).ok());
    EXPECT_EQ(got, 0u);
}

} // namespace
} // namespace sigcomp

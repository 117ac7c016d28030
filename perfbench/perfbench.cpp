/**
 * @file
 * perfbench — the sigcomp benchmark binary (see perfbench/README.md).
 *
 *   perfbench setup --workload W --seed N --dir D
 *   perfbench run   --workload W --seed N --seconds S --trace 0|1 --dir D
 *                   [--commit C] [--trace-out FILE]
 *
 * `setup` prepares everything a run needs under D (prewarmed store,
 * reference digests) in a fresh process, so its wall time is the
 * set-up a user pays. `run` measures W for S seconds against the
 * public engine API, or against sigcompd over loopback for
 * serve_mix and serve_miss, and prints one JSON result as its last
 * stdout line:
 * the end-to-end metrics with --trace 0, the per-layer metrics of
 * the traced breakdown with --trace 1.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/plan_json.h"
#include "analysis/profilers.h"
#include "analysis/session.h"
#include "common/sha256.h"
#include "common/simd.h"
#include "cpu/trace_buffer.h"
#include "harness.h"
#include "pipeline/models.h"
#include "pipeline/runner.h"
#include "server/http.h"
#include "store/codec.h"
#include "store/trace_store.h"
#include "workloads/workload.h"

namespace
{

using namespace sigcomp;
using namespace perfbench;
namespace an = sigcomp::analysis;
namespace pl = sigcomp::pipeline;
namespace fs = std::filesystem;

// ---- fixed benchmark parameters (recorded in README.md) ----------------

/** Session threads of the paper_* workloads. */
constexpr unsigned kPaperThreads = 4;
/**
 * paper_cold writes a scratch store: saves keep the atomic rename but
 * skip fsync, so the op times the engine rather than the disk's
 * flush latency (the store's own guidance for scratch stores).
 */
constexpr bool kDurableSaves = false;
/** Scheduling-side configs per design_sweep grid (x7 designs). */
constexpr std::size_t kSweepConfigs = 18;
/**
 * Timed ops per run: --seconds over the workload's nominal op time,
 * at least kMinOps. The count depends on the workload and --seconds
 * only, never on how fast the ops run, so the tail is the same order
 * statistic on every run and every commit. paper_warm's and
 * design_sweep's nominal times are their op walls on the 4-vCPU
 * reference host; paper_cold's is about two thirds of its op wall,
 * so its runs are longer: it is the workload most slowed by a busy
 * host.
 */
constexpr std::size_t kMinOps = 3;
double
nominalOpSeconds(const std::string &workload)
{
    if (workload == "paper_cold")
        return 0.4;
    if (workload == "paper_warm")
        return 0.3;
    return 4.0; // design_sweep
}
/** Wire plans in the serving population (> the 64-entry cache). */
constexpr std::size_t kPopulation = 128;
/**
 * Zipf exponent of plan popularity: inside the 0.64-0.83 range that
 * Breslau et al. (INFOCOM 1999) measured for web request popularity.
 */
constexpr double kZipfS = 0.8;
/** Serving offered rate (requests/s) for the timed run (assumed). */
constexpr double kServeRate = 200.0;
/** Serving settling stream after the warm-up sweep, seconds. */
constexpr double kWarmupSeconds = 2.0;
/**
 * Deadline of the warm-up's per-tenant plan copies and of serve_miss's
 * per-request copies (never fires; each copy adds its own offset).
 */
constexpr std::uint64_t kWarmDeadlineMs = 100000000;
/** Serving tail window: 200 requests at the offered rate. */
constexpr double kWindowSeconds = 1.0;
/** Serving latency limit on the tail percentile (slo_rps; assumed). */
constexpr double kSloLimitMs = 50.0;
/**
 * Length of one ladder step. Overload at twice the capacity builds a
 * backlog of half a step, well past the limit, while the whole ladder
 * stays under 13k connections: sigcompd keeps a thread per accepted
 * connection until it shuts down, and aborts near 32k.
 */
constexpr double kLadderStepSeconds = 0.5;
/**
 * Serving rate ladder, requests/s. It doubles past what the client
 * connections carry on the 4-vCPU reference host, so there the ladder
 * ends on a failing step and slo_rps is not pinned at its top.
 */
constexpr double kLadder[] = {100.0,  200.0,  400.0,  800.0,
                              1600.0, 3200.0, 6400.0, 12800.0};
const char *const kTenants[] = {"alpha", "beta", "gamma"};
/** Client threads/connections: never more than the host's cores. */
unsigned
clientThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : std::min(4u, n);
}

struct Args
{
    std::string mode;
    std::string workload;
    std::string dir;
    std::string commit = "unknown";
    std::string traceOut;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
};

bool
isPlanWorkload(const std::string &w)
{
    return w == "paper_cold" || w == "paper_warm" || w == "design_sweep";
}

std::size_t
opsFor(const Args &a)
{
    return std::max(kMinOps, static_cast<std::size_t>(std::lround(
                                 a.seconds / nominalOpSeconds(a.workload))));
}

// ---- plans ---------------------------------------------------------------

/** One pipeline the Session builds per workload, in its build order. */
struct PipeSpec
{
    pl::Design design;
    pl::PipelineConfig config;
};

/**
 * A StudyPlan plus the parallel description the breakdown needs:
 * the pipelines Session::run registers per trace (cpi studies, then
 * activity, then energy) and the caller-owned profiler sinks.
 */
struct PlanHolder
{
    an::PatternProfiler pat;
    an::InstrMixProfiler mix;
    an::PcProfiler pc;
    bool sinks = false;
    an::StudyPlan plan;
    std::vector<PipeSpec> pipes;
    std::vector<std::size_t> cpiDesigns;
    std::size_t activityStudies = 0;
    std::size_t energyStudies = 0;

    /** Work units per trace instruction: pipelines plus sinks. */
    std::size_t units() const { return pipes.size() + (sinks ? 3 : 0); }

    void
    addCpi(const pl::PipelineConfig &cfg)
    {
        plan.cpi(pl::allDesigns(), cfg);
        for (pl::Design d : pl::allDesigns())
            pipes.push_back({d, cfg});
        cpiDesigns.push_back(pl::allDesigns().size());
    }

    /**
     * Digest of the profiler tallies (the paper's Tables 1-3): the
     * sinks are caller-owned, so their output is not in the report.
     */
    std::string
    profileDigest() const
    {
        if (!sinks)
            return "";
        std::string s;
        for (const auto &[k, c] : pat.patterns().ranked())
            s += std::to_string(k) + ":" + std::to_string(c) + ",";
        s += "|";
        for (const auto &[k, c] : mix.functFreq().ranked())
            s += std::to_string(k) + ":" + std::to_string(c) + ",";
        s += "|" + std::to_string(mix.total()) + "|";
        for (unsigned b = 1; b <= 8; ++b) {
            const sig::PcActivityAccumulator &a = pc.forBlockBits(b);
            s += std::to_string(a.updates()) + ":" +
                 std::to_string(a.activityBits()) + ":" +
                 std::to_string(a.cycles()) + ",";
        }
        return Sha256::hex(s);
    }
};

/** The paper plan: every table and figure of the paper in one pass. */
std::unique_ptr<PlanHolder>
paperPlan()
{
    auto h = std::make_unique<PlanHolder>();
    h->addCpi(an::suiteConfig());
    h->plan.activity(sig::Encoding::Ext3).activity(sig::Encoding::Half1);
    h->pipes.push_back(
        {pl::Design::ByteSerial, an::suiteConfig(sig::Encoding::Ext3)});
    h->pipes.push_back({pl::Design::HalfwordSerial,
                        an::suiteConfig(sig::Encoding::Half1)});
    h->activityStudies = 2;
    h->plan.energy();
    h->pipes.push_back(
        {pl::Design::ByteSerial, an::suiteConfig(sig::Encoding::Ext3)});
    h->energyStudies = 1;
    h->plan.profile({&h->pat, &h->mix, &h->pc});
    h->sinks = true;
    return h;
}

/**
 * The design_sweep grid: kSweepConfigs distinct scheduling-side
 * variants of suiteConfig() (predictor, mult/div occupancy, PHT/BTB
 * sizes; the seed draws all but the predictor). All share
 * suiteConfig()'s quanta key, so the prewarmed store's annex serves
 * every one of them.
 */
std::vector<pl::PipelineConfig>
sweepGrid(std::uint64_t seed)
{
    std::mt19937_64 rng(seed * 0x9E3779B97F4A7C15ull + 1);
    const pl::PipelineConfig base = an::suiteConfig();
    const pl::PredictorKind kinds[] = {pl::PredictorKind::None,
                                       pl::PredictorKind::NotTaken,
                                       pl::PredictorKind::Bimodal};
    std::set<std::vector<unsigned>> seen;
    std::vector<pl::PipelineConfig> grid;
    while (grid.size() < kSweepConfigs) {
        pl::PipelineConfig c = base;
        // Each predictor kind takes a fixed third of the grid (they
        // differ in cost), so seeds differ only within a kind.
        c.predictor = kinds[grid.size() % 3];
        c.multCycles = 2 + static_cast<unsigned>(rng() % 7);
        c.divCycles = 8 + static_cast<unsigned>(rng() % 17);
        c.phtEntries = 256u << (rng() % 4);
        c.btbEntries = 64u << (rng() % 3);
        const std::vector<unsigned> key = {
            static_cast<unsigned>(c.predictor), c.multCycles, c.divCycles,
            c.phtEntries, c.btbEntries};
        if (seen.insert(key).second)
            grid.push_back(c);
    }
    return grid;
}

std::unique_ptr<PlanHolder>
sweepPlan(const std::vector<pl::PipelineConfig> &grid)
{
    auto h = std::make_unique<PlanHolder>();
    for (const pl::PipelineConfig &c : grid)
        h->addCpi(c);
    return h;
}

std::unique_ptr<PlanHolder>
planFor(const std::string &workload, const std::vector<pl::PipelineConfig> &grid)
{
    return workload == "design_sweep" ? sweepPlan(grid) : paperPlan();
}

/** Rows digest of the report plus the profiler digest. */
std::string
opDigest(const an::SuiteReport &rep, const PlanHolder &h)
{
    return Sha256::hex(rowsDigest(rep.toJson()) + h.profileDigest());
}

// ---- serving population --------------------------------------------------

struct WirePlan
{
    std::string json;
    std::size_t pipes = 0;
    std::string digest;
    std::uint64_t instructions = 0;
};

double
unit(std::mt19937_64 &rng)
{
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

/**
 * kPopulation distinct wire plans, 1-3 suite workloads and 1-3
 * studies each (activity, cpi over 1-3 designs, energy). A plan's
 * shape (workload count, study count and kinds) is fixed by its
 * popularity rank, and so are its workloads and cpi design count:
 * every seed gives the same work per Zipf rank. The seed draws the
 * designs, encodings and predictors that fill each shape.
 */
std::vector<WirePlan>
population(std::uint64_t seed)
{
    std::mt19937_64 rng(seed * 0xD1B54A32D192ED03ull + 7);
    const std::vector<std::string> &names = workloads::Suite::names();
    const std::vector<pl::Design> designs = pl::allDesigns();
    const sig::Encoding encs[] = {sig::Encoding::Ext3, sig::Encoding::Ext2,
                                  sig::Encoding::Half1};
    std::set<std::string> seen;
    std::vector<WirePlan> out;
    while (out.size() < kPopulation) {
        an::StudyPlan p;
        WirePlan wp;
        std::vector<std::string> pick;
        const std::size_t rank = out.size();
        const std::size_t k = 1 + rank % 3;
        for (std::size_t i = 0; i < k; ++i)
            pick.push_back(names[(rank + 4 * i) % names.size()]);
        p.workloads(pick);
        const std::size_t m = 1 + (rank / 3) % 3;
        for (std::size_t s = 0; s < m; ++s) {
            switch ((rank / 9 + s) % 3) {
            case 0:
                p.activity(encs[rng() % 3]);
                ++wp.pipes;
                break;
            case 1: {
                std::vector<pl::Design> ds;
                std::vector<pl::Design> dpool = designs;
                const std::size_t nd = 1 + (rank / 27) % 3;
                for (std::size_t i = 0; i < nd; ++i) {
                    const std::size_t j = rng() % dpool.size();
                    ds.push_back(dpool[j]);
                    dpool.erase(dpool.begin() + static_cast<std::ptrdiff_t>(j));
                }
                pl::PipelineConfig cfg =
                    an::suiteConfig(rng() % 2 ? sig::Encoding::Half1
                                              : sig::Encoding::Ext3);
                if (rng() % 2)
                    cfg.predictor = pl::PredictorKind::Bimodal;
                p.cpi(ds, cfg);
                wp.pipes += ds.size();
                break;
            }
            default:
                p.energy(power::TechParams{},
                         rng() % 2 ? pl::Design::ByteSerial
                                   : pl::Design::HalfwordSerial,
                         rng() % 2 ? sig::Encoding::Ext2
                                   : sig::Encoding::Ext3);
                ++wp.pipes;
                break;
            }
        }
        an::PlanError err;
        if (!an::writePlanJson(p, &wp.json, &err)) {
            std::fprintf(stderr, "perfbench: plan not wire-expressible: %s\n",
                         err.render().c_str());
            std::exit(1);
        }
        if (seen.insert(wp.json).second)
            out.push_back(std::move(wp));
    }
    return out;
}

struct Request
{
    double due = 0.0; ///< seconds after the stream starts
    std::size_t plan = 0;
    const char *tenant = "";
};

/**
 * Open-loop Poisson arrivals at @p rate (independent users, whose
 * session arrivals Paxson and Floyd, 1995, found Poisson) with Zipf
 * popularity over the population.
 */
std::vector<Request>
schedule(std::uint64_t seed, double rate, double seconds)
{
    std::mt19937_64 rng(seed * 0xA24BAED4963EE407ull + 11);
    const std::size_t plans = kPopulation;
    std::vector<double> cdf(plans);
    double sum = 0.0;
    for (std::size_t r = 0; r < plans; ++r) {
        sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
        cdf[r] = sum;
    }
    std::vector<Request> out;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - unit(rng)) / rate;
        if (t >= seconds)
            break;
        Request q;
        q.due = t;
        const double u = unit(rng) * sum;
        q.plan = static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        q.plan = std::min(q.plan, plans - 1);
        q.tenant = kTenants[rng() % 3];
        out.push_back(q);
    }
    return out;
}

struct Outcome
{
    double latencyMs = 0.0; ///< completion minus due time
    double lateMs = 0.0;    ///< send minus due time (generator lateness)
    int status = 0;
    bool ok = false;
    std::string body; ///< kept until the stream ends, then checked
};

/**
 * Send @p reqs open loop: each request leaves at its due time on
 * one of clientThreads() connections; a request whose turn comes
 * late is timed from its due time anyway, so stalls count. Replies
 * are checked after the stream, so the check takes no CPU from the
 * daemon while it serves.
 */
std::vector<Outcome>
drive(unsigned port, const std::vector<WirePlan> &plans,
      const std::vector<Request> &reqs)
{
    std::vector<Outcome> out(reqs.size());
    std::atomic<std::size_t> next{0};
    const double t0 = nowSec() + 0.01;
    auto worker = [&] {
        for (;;) {
            const std::size_t i = next.fetch_add(1);
            if (i >= reqs.size())
                return;
            const double due = t0 + reqs[i].due;
            const double wait = due - nowSec();
            if (wait > 0)
                std::this_thread::sleep_for(std::chrono::duration<double>(wait));
            const double sent = nowSec();
            const WirePlan &wp = plans[reqs[i].plan];
            const HttpReply r =
                httpCall(port, "POST", "/v1/run", wp.json, reqs[i].tenant);
            const double done = nowSec();
            Outcome &o = out[i];
            o.latencyMs = (done - due) * 1e3;
            o.lateMs = (sent - due) * 1e3;
            o.status = r.status;
            o.body = r.body;
        }
    };
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < clientThreads(); ++i)
        threads.emplace_back(worker);
    for (std::thread &t : threads)
        t.join();
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].ok = out[i].status == 200 &&
                    rowsDigest(out[i].body) == plans[reqs[i].plan].digest;
        out[i].body = std::string();
    }
    return out;
}

// ---- setup ---------------------------------------------------------------

void
warmCompressor()
{
    (void)an::suiteCompressor();
    // The suite profile captured every workload into the default
    // session; drop those traces so they neither inflate peak RSS nor
    // serve any measured op.
    an::Session::defaultSession().cache().clear();
}

std::string
storeDir(const Args &a)
{
    return (fs::path(a.dir) / "store").string();
}

int
doSetup(const Args &a)
{
    warmCompressor();
    fs::create_directories(a.dir);
    std::ofstream out(fs::path(a.dir) / "setup.txt");
    const std::vector<pl::PipelineConfig> grid =
        a.workload == "design_sweep" ? sweepGrid(a.seed)
                                     : std::vector<pl::PipelineConfig>{};

    if (isPlanWorkload(a.workload)) {
        // The reference run, at the other thread count than the timed
        // ops (threads=1 for paper_*, threads=4 for the threads=1
        // sweep), so the check also covers thread-count invariance.
        // For the store-backed workloads it is also the prewarm: a
        // writable session over the scratch store saves every segment
        // plus its quanta annexes.
        auto h = planFor(a.workload, grid);
        an::SessionConfig sc;
        sc.threads = a.workload == "design_sweep" ? kPaperThreads : 1;
        if (a.workload != "paper_cold")
            sc.storeDir = storeDir(a);
        an::Session session(sc);
        const an::SuiteReport rep = session.run(h->plan);
        if (rep.rejected || rep.cancelled || rep.deadlineExceeded) {
            std::fprintf(stderr, "perfbench: reference run incomplete\n");
            return 1;
        }
        out << "digest " << opDigest(rep, *h) << "\n";
        out << "instructions " << rep.instructions << "\n";
        return out.good() ? 0 : 1;
    }

    {
        // The prewarm, which is also the reference run of the paper
        // plan that the traced run breaks down per layer (at threads=1,
        // like paper_warm's, so the check covers thread-count
        // invariance).
        auto h = paperPlan();
        an::SessionConfig sc;
        sc.threads = 1;
        sc.storeDir = storeDir(a);
        an::Session session(sc);
        const an::SuiteReport rep = session.run(h->plan);
        if (rep.rejected || rep.cancelled || rep.deadlineExceeded) {
            std::fprintf(stderr, "perfbench: reference run incomplete\n");
            return 1;
        }
        out << "digest " << opDigest(rep, *h) << "\n";
    }
    // In-process reference for every plan of the population, run
    // from the exact wire bytes the client will send.
    an::SessionConfig sc;
    sc.threads = kPaperThreads;
    sc.storeDir = storeDir(a);
    sc.readOnly = true;
    an::Session session(sc);
    const std::vector<WirePlan> plans = population(a.seed);
    for (std::size_t i = 0; i < plans.size(); ++i) {
        an::StudyPlan p;
        an::PlanError err;
        if (!an::parsePlanJson(plans[i].json, &p, &err)) {
            std::fprintf(stderr, "perfbench: %s\n", err.render().c_str());
            return 1;
        }
        const an::SuiteReport rep = session.run(p);
        out << "plan " << i << " " << rowsDigest(rep.toJson()) << " "
            << rep.instructions << "\n";
    }
    // Daemon start-up is part of set-up: start one over the store,
    // check it serves, and stop it cleanly.
    Daemon d;
    std::string why;
    if (!d.start(PERFBENCH_SIGCOMPD, {"--dir", storeDir(a)}, &why) ||
        httpCall(d.port(), "GET", "/healthz", "").status != 200 ||
        !d.stop(&why)) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        return 1;
    }
    return out.good() ? 0 : 1;
}

/** setup.txt: "digest X", "instructions N", "plan i digest instrs". */
struct SetupData
{
    std::string digest;
    std::uint64_t instructions = 0;
    std::vector<std::pair<std::string, std::uint64_t>> plans;
};

bool
readSetup(const Args &a, SetupData *s)
{
    std::ifstream in(fs::path(a.dir) / "setup.txt");
    std::string kind;
    while (in >> kind) {
        if (kind == "digest") {
            in >> s->digest;
        } else if (kind == "instructions") {
            in >> s->instructions;
        } else if (kind == "plan") {
            std::size_t i = 0;
            std::string d;
            std::uint64_t n = 0;
            in >> i >> d >> n;
            s->plans.push_back({d, n});
        }
    }
    return !s->digest.empty() || !s->plans.empty();
}

// ---- plan workloads ------------------------------------------------------

struct PlanRunner
{
    std::string workload;
    std::string store;   ///< prewarmed store (warm/sweep)
    fs::path scratch;    ///< per-op store dirs (cold)
    std::vector<pl::PipelineConfig> grid;
    unsigned threads = kPaperThreads;
    int seq = 0;

    bool cold() const { return workload == "paper_cold"; }

    /**
     * One fused op: Session construction to finished SuiteReport.
     * @p ms receives its wall time, @p cpuMs (if given) the CPU time
     * all of this process's threads spent in it.
     */
    an::SuiteReport
    fused(PlanHolder &h, double *ms, double *cpuMs = nullptr)
    {
        an::SessionConfig sc;
        sc.threads = threads;
        fs::path dir;
        if (cold()) {
            dir = scratch / ("op-" + std::to_string(seq++));
            sc.storeDir = dir.string();
            sc.durableSaves = kDurableSaves;
        } else {
            sc.storeDir = store;
            sc.readOnly = true;
        }
        an::SuiteReport rep;
        {
            const double cpu0 = processCpuSec();
            const std::int64_t t0 = nowNs();
            an::Session session(sc);
            rep = session.run(h.plan);
            *ms = static_cast<double>(nowNs() - t0) * 1e-6;
            if (cpuMs != nullptr)
                *cpuMs = (processCpuSec() - cpu0) * 1e3;
        }
        if (cold())
            fs::remove_all(dir);
        return rep;
    }

    /** Engine accounting every op of this workload must show. */
    bool
    conserves(const an::SuiteReport &rep) const
    {
        const std::size_t n = workloads::Suite::names().size();
        return cold() ? rep.captures == n && rep.storeLoads == 0
                      : rep.captures == 0 && rep.storeLoads == n;
    }
};

/** Replays nothing: isolates block materialisation. */
struct NoopSink : cpu::TraceSink
{
    void retire(const cpu::DynInstr &) override {}
    void retireBlock(std::span<const cpu::DynInstr>) override {}
};

/** The trace's 32-bit columns, as the store encodes them. */
struct ColumnSink : cpu::TraceSink
{
    std::vector<std::uint32_t> cols[4];
    void
    retire(const cpu::DynInstr &di) override
    {
        cols[0].push_back((di.pc - isa::textBase) / 4);
        cols[1].push_back(di.result);
        if (di.dec->isLoad || di.dec->isStore) {
            cols[2].push_back(di.memAddr);
            cols[3].push_back(di.memData);
        }
    }
};

struct EncodedColumns
{
    std::vector<std::uint8_t> bytes[4];
    std::size_t n[4] = {0, 0, 0, 0};
};

/** Per-layer numbers of one broken-down op (see README.md). */
struct Layers
{
    double capture = 0, save = 0, load = 0, decode = 0, block = 0,
           quanta = 0, consumer = 0, sinks = 0, unattributed = 0,
           opWall = 0, fusedWork = 0;
    std::uint64_t blockPasses = 0, quantaComputed = 0, quantaAdopted = 0,
                  registered = 0, memoAdopted = 0;
    bool matchesFused = true;
};

bool
sameActivity(const pl::ActivityTotals &a, const pl::ActivityTotals &b)
{
    const pl::BitPair *x[] = {&a.fetch, &a.rfRead, &a.rfWrite, &a.alu,
                              &a.dcData, &a.dcTag, &a.pcInc, &a.latch};
    const pl::BitPair *y[] = {&b.fetch, &b.rfRead, &b.rfWrite, &b.alu,
                              &b.dcData, &b.dcTag, &b.pcInc, &b.latch};
    for (int i = 0; i < 8; ++i) {
        if (x[i]->compressed != y[i]->compressed ||
            x[i]->baseline != y[i]->baseline)
            return false;
    }
    return true;
}

/**
 * The op broken into public calls, one span per call: capture (or
 * store load), save, a no-op replay (block materialisation), a
 * decode probe, one replayPipelines call with a recording leader per
 * missing quanta key, one with the remaining pipelines, and a replay
 * into the profilers. Splits of a call into layers subtract the
 * no-op replay's time (see README.md for the formulas).
 */
Layers
breakdown(PlanRunner &r, const an::SuiteReport &fusedRep, Tracer &tr,
          int op, const std::map<std::string, isa::Program> &programs,
          const std::vector<EncodedColumns> &encoded)
{
    Layers L;
    auto h = planFor(r.workload, r.grid);
    const std::vector<std::string> &names = workloads::Suite::names();
    const DWord limit = cpu::TraceBuffer::defaultMaxInstrs;
    const fs::path saveDir = r.scratch / ("breakdown-" + std::to_string(op));
    store::TraceStore rw(saveDir.string(),
                         store::StoreOptions{.readOnly = false,
                                             .durableSaves = kDurableSaves});
    store::TraceStore ro(r.store.empty() ? saveDir.string() : r.store, true);
    an::Session capture; // store-less: trace() captures

    auto timed = [&](const char *name, auto &&fn) {
        Scope s(tr, name, op);
        const std::int64_t t0 = nowNs();
        fn();
        return static_cast<double>(nowNs() - t0) * 1e-6;
    };

    const std::int64_t opStart = nowNs();
    const int root = tr.enabled ? tr.open("op", op) : -1;
    for (std::size_t wi = 0; wi < names.size(); ++wi) {
        const std::string &name = names[wi];
        std::shared_ptr<const cpu::TraceBuffer> trace;
        double got = 0.0;
        if (r.cold()) {
            got = timed("cpu.capture", [&] { trace = capture.trace(name); });
            L.capture += got;
            const double save = timed("store.save", [&] {
                (void)rw.save(name, *trace, limit);
            });
            L.save += save;
            got += save;
        } else {
            got = timed("store.load", [&] {
                trace = ro.load(name, programs.at(name), limit);
            });
            L.load += got;
            if (trace == nullptr) {
                std::fprintf(stderr, "perfbench: store load of %s failed\n",
                             name.c_str());
                L.matchesFused = false;
                continue;
            }
            L.decode += timed("store.decode", [&] {
                const EncodedColumns &e = encoded[wi];
                std::vector<std::uint32_t> col;
                for (int c = 0; c < 4; ++c) {
                    (void)store::decodeColumn32(e.bytes[c].data(),
                                                e.bytes[c].size(), e.n[c],
                                                col);
                }
            });
        }

        NoopSink noop;
        const double block = timed("pipeline.block", [&] {
            cpu::TraceView(*trace).replay(noop);
        });

        std::vector<std::unique_ptr<pl::InOrderPipeline>> owned;
        std::vector<pl::InOrderPipeline *> leaders, rest;
        std::set<std::string> keys;
        std::size_t impure = 0;
        for (const PipeSpec &p : h->pipes) {
            owned.push_back(pl::makePipeline(p.design, p.config));
            pl::InOrderPipeline *pp = owned.back().get();
            impure += !pp->planIsPure();
            const std::string key = pp->quantaKey();
            if (trace->annexGet(key) == nullptr && keys.insert(key).second)
                leaders.push_back(pp);
            else
                rest.push_back(pp);
        }
        const std::size_t q0 = trace->annexKeys("quanta:").size();
        const std::size_t m0 = trace->annexKeys("result:").size();
        double record = 0.0, consume = 0.0, sinks = 0.0;
        if (!leaders.empty()) {
            record = timed("pipeline.record", [&] {
                pl::replayPipelines(*trace, leaders);
            });
        }
        const std::size_t m1 = trace->annexKeys("result:").size();
        if (!rest.empty()) {
            consume = timed("pipeline.consume", [&] {
                pl::replayPipelines(*trace, rest);
            });
        }
        const std::size_t m2 = trace->annexKeys("result:").size();
        if (h->sinks) {
            sinks = timed("analysis.sinks", [&] {
                cpu::TraceView(*trace).replay(
                    std::vector<cpu::TraceSink *>{&h->pat, &h->mix, &h->pc});
            });
        }

        // Split the calls: every replay call materialises the blocks
        // once; a recording leader runs the quanta front half plus
        // one consumer back half.
        const std::size_t consumers = m2 - m1;
        const double perConsumer =
            consumers ? (consume - block) / static_cast<double>(consumers)
                      : 0.0;
        const double leaderBack =
            static_cast<double>(leaders.size()) * perConsumer;
        const std::uint64_t passes =
            1 + !leaders.empty() + !rest.empty() + h->sinks;
        L.blockPasses += passes;
        L.block += block * static_cast<double>(passes);
        const double quanta = leaders.empty() ? 0.0 : record - block - leaderBack;
        const double consumer =
            (rest.empty() ? 0.0 : consume - block) + leaderBack;
        L.quanta += quanta;
        L.consumer += consumer;
        L.sinks += h->sinks ? sinks - block : 0.0;
        L.fusedWork += got + block + quanta + consumer +
                       (h->sinks ? sinks - block : 0.0);
        L.quantaAdopted += q0;
        L.quantaComputed += trace->annexKeys("quanta:").size() - q0;
        L.registered += h->pipes.size();
        // Pure pipelines that replayed each publish one result memo;
        // impure ones always replay and publish none.
        L.memoAdopted += h->pipes.size() - (m2 - m0) - impure;

        // The broken-down calls must reproduce the fused op's rows.
        std::size_t k = 0;
        for (std::size_t s = 0; s < h->cpiDesigns.size(); ++s) {
            for (std::size_t d = 0; d < h->cpiDesigns[s]; ++d, ++k) {
                if (owned[k]->result().cycles !=
                    fusedRep.cpi[s].results[wi][d].cycles)
                    L.matchesFused = false;
            }
        }
        for (std::size_t s = 0; s < h->activityStudies; ++s, ++k) {
            if (!sameActivity(owned[k]->result().activity,
                              fusedRep.activity[s].rows[wi].activity))
                L.matchesFused = false;
        }
        for (std::size_t s = 0; s < h->energyStudies; ++s, ++k) {
            if (owned[k]->result().instructions !=
                fusedRep.energy[s].rows[wi].instructions)
                L.matchesFused = false;
        }
    }
    if (root >= 0)
        tr.close(root);
    L.opWall = static_cast<double>(nowNs() - opStart) * 1e-6;
    L.unattributed = tr.enabled ? tr.selfMs(op)["op"] : 0.0;
    fs::remove_all(saveDir);
    return L;
}

/** Stamp: host, build and run identity, printed before the result. */
void
printStamp(const Args &a, const std::string &extra)
{
    const char *forced = std::getenv("SIGCOMP_FORCE_SCALAR");
    std::printf(
        "{\"stamp\": {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": "
        "%g, \"trace\": %d, \"nproc\": %u, \"simd\": \"%s\", "
        "\"force_scalar\": %s, \"compiler\": \"%s\", \"build_type\": "
        "\"%s\", \"sanitize\": \"%s\", \"telemetry\": \"%s\", \"commit\": "
        "\"%s\"%s}}\n",
        a.workload.c_str(), static_cast<unsigned long long>(a.seed),
        a.seconds, a.trace, std::thread::hardware_concurrency(),
        simd::simdLevelName(simd::activeSimdLevel()),
        forced != nullptr ? "true" : "false", PERFBENCH_COMPILER,
        PERFBENCH_BUILD_TYPE, PERFBENCH_SANITIZE, PERFBENCH_TELEMETRY,
        a.commit.c_str(), extra.c_str());
}

/**
 * Every per-layer metric with its unit, in BENCHMARK.json order. A
 * traced run reports all of them; the ones its workload has no layer
 * for read 0.
 */
void
addLayerMetrics(Result &res, const std::map<std::string, double> &v)
{
    static const std::pair<const char *, const char *> kNames[] = {
        {"cpu.capture_ms", "ms"},
        {"store.save_ms", "ms"},
        {"store.load_ms", "ms"},
        {"store.decode_ms", "ms"},
        {"store.load_rest_ms", "ms"},
        {"pipeline.block_ms", "ms"},
        {"pipeline.block_passes", "count"},
        {"pipeline.quanta_ms", "ms"},
        {"pipeline.consumer_ms", "ms"},
        {"pipeline.quanta_computed", "count"},
        {"pipeline.quanta_adopted", "count"},
        {"pipeline.result_memo_ratio", "ratio"},
        {"pipeline.pipelines_registered", "count"},
        {"analysis.sinks_ms", "ms"},
        {"analysis.report_ms", "ms"},
        {"analysis.plan_json_us", "us"},
        {"analysis.unattributed_ms", "ms"},
        {"analysis.traced_op_ms", "ms"},
        {"analysis.fused_op_ms", "ms"},
        {"trace.overhead_ms", "ms"},
        {"trace.rows_match", "bool"},
        {"common.parallel_efficiency", "ratio"},
        {"cache.captures", "count"},
        {"cache.store_loads", "count"},
        {"replay_passes", "count"},
        {"server.http_parse_us", "us"},
        {"server.fingerprint_us", "us"},
        {"server.hit_ms", "ms"},
        {"server.miss_ms", "ms"},
        {"server.requests", "count"},
        {"server.cache_hit_ratio", "ratio"},
        {"server.evictions", "count"},
        {"server.dedupe_joins", "count"},
        {"server.runs", "count"},
        {"server.rejects", "count"},
        {"server.gen_late_ms", "ms"},
        {"server.slo_rps", "1/s"}};
    for (const auto &[n, u] : kNames) {
        const auto it = v.find(n);
        res.add(n, it == v.end() ? 0.0 : it->second, u);
    }
}

/**
 * The traced run of a plan workload: for @p seconds, a fused op (its
 * output checked against @p digest), the same op broken into public
 * calls with spans (op ids from @p op) and its untraced twin, and for
 * paper_warm a breakdown from an empty store. Fills @p v with the
 * per-layer medians; true iff every breakdown reproduced the fused op.
 */
bool
planLayers(PlanRunner r, const std::string &digest, double seconds,
           Tracer &tr, int &op, Result &res, std::map<std::string, double> *v,
           int *repsOut)
{
    std::map<std::string, isa::Program> programs;
    std::vector<EncodedColumns> encoded;
    for (const std::string &n : workloads::Suite::names())
        programs.emplace(n, workloads::Suite::build(n).program);
    if (!r.cold()) {
        store::TraceStore ro(r.store, true);
        for (const std::string &n : workloads::Suite::names()) {
            auto t = ro.load(n, programs.at(n),
                             cpu::TraceBuffer::defaultMaxInstrs);
            EncodedColumns e;
            if (t != nullptr) {
                ColumnSink cs;
                cpu::TraceView(*t).replay(cs);
                for (int c = 0; c < 4; ++c) {
                    store::encodeColumn32(cs.cols[c].data(),
                                          cs.cols[c].size(), e.bytes[c]);
                    e.n[c] = cs.cols[c].size();
                }
            }
            encoded.push_back(std::move(e));
        }
    }

    std::map<std::string, Samples> m;
    bool rowsMatch = true;
    const double end = nowSec() + seconds;
    int reps = 0;
    do {
        auto h = planFor(r.workload, r.grid);
        double fusedMs = 0.0;
        const an::SuiteReport rep = r.fused(*h, &fusedMs);
        ++res.attempted;
        bool ok = opDigest(rep, *h) == digest && r.conserves(rep);

        // The traced breakdown and its untraced twin, alternating
        // which goes first so order effects cancel in the median.
        auto twin = [&](bool traced) {
            tr.enabled = traced;
            const Layers x = breakdown(r, rep, tr, ++op, programs, encoded);
            tr.enabled = false;
            return x;
        };
        Layers L, U;
        if (reps % 2 == 0) {
            L = twin(true);
            U = twin(false);
        } else {
            U = twin(false);
            L = twin(true);
        }
        // No plan workload is in BENCHMARK.json (their run-to-run
        // spread on a busy host exceeds the bound), so this loop, run
        // as paper_warm, also breaks the same plan down from an empty
        // store: capture, save and quanta times come from that pass.
        Layers C = L;
        if (r.workload == "paper_warm") {
            PlanRunner cold = r;
            cold.workload = "paper_cold";
            cold.store.clear();
            tr.enabled = true;
            C = breakdown(cold, rep, tr, ++op, programs, encoded);
            tr.enabled = false;
        }
        ok = ok && L.matchesFused && U.matchesFused && C.matchesFused;
        rowsMatch = rowsMatch && L.matchesFused && U.matchesFused &&
                    C.matchesFused;
        if (!ok)
            ++res.failed;

        const std::int64_t t0 = nowNs();
        (void)rep.toJson();
        const double reportMs = static_cast<double>(nowNs() - t0) * 1e-6;
        m["cpu.capture_ms"].add(C.capture);
        m["store.save_ms"].add(C.save);
        m["store.load_ms"].add(L.load);
        m["store.decode_ms"].add(L.decode);
        m["store.load_rest_ms"].add(L.load - L.decode);
        m["pipeline.block_ms"].add(L.block);
        m["pipeline.quanta_ms"].add(C.quanta);
        m["pipeline.consumer_ms"].add(L.consumer);
        m["analysis.sinks_ms"].add(L.sinks);
        m["analysis.report_ms"].add(reportMs);
        m["analysis.unattributed_ms"].add(L.unattributed);
        m["analysis.traced_op_ms"].add(L.opWall);
        m["analysis.fused_op_ms"].add(fusedMs);
        m["trace.overhead_ms"].add(L.opWall - U.opWall);
        m["common.parallel_efficiency"].add(
            L.fusedWork / (static_cast<double>(r.threads) * fusedMs));
        if (reps++ == 0) {
            m["pipeline.block_passes"].add(static_cast<double>(L.blockPasses));
            m["pipeline.quanta_computed"].add(
                static_cast<double>(L.quantaComputed));
            m["pipeline.quanta_adopted"].add(
                static_cast<double>(L.quantaAdopted));
            m["pipeline.result_memo_ratio"].add(
                static_cast<double>(L.memoAdopted) /
                static_cast<double>(L.registered));
            m["pipeline.pipelines_registered"].add(
                static_cast<double>(L.registered));
            m["cache.captures"].add(static_cast<double>(rep.captures));
            m["cache.store_loads"].add(static_cast<double>(rep.storeLoads));
            m["replay_passes"].add(static_cast<double>(rep.replayPasses));
        }
    } while (nowSec() < end);

    for (const auto &[k, s] : m)
        (*v)[k] = s.median();
    (*v)["trace.rows_match"] = rowsMatch ? 1.0 : 0.0;
    *repsOut = reps;
    return rowsMatch;
}

int
runPlanWorkload(const Args &a, const SetupData &setup)
{
    PlanRunner r;
    r.workload = a.workload;
    r.scratch = fs::path(a.dir) / "scratch";
    fs::create_directories(r.scratch);
    if (!r.cold())
        r.store = storeDir(a);
    if (a.workload == "design_sweep") {
        r.grid = sweepGrid(a.seed);
        r.threads = 1;
    }
    warmCompressor();
    const std::size_t units = planFor(a.workload, r.grid)->units();
    const std::uint64_t workUnits = units * setup.instructions;

    Result res;
    if (a.trace == 0) {
        // One untimed op first: the process's first op pays one-time
        // page faults and allocator growth that no later op repeats.
        {
            auto h = planFor(a.workload, r.grid);
            double t = 0.0;
            const an::SuiteReport rep = r.fused(*h, &t);
            ++res.attempted;
            if (!r.conserves(rep) || opDigest(rep, *h) != setup.digest)
                ++res.failed;
        }
        resetPeakRss();
        Samples ms, rate;
        const std::size_t ops = opsFor(a);
        for (std::size_t i = 0; i < ops; ++i) {
            auto h = planFor(a.workload, r.grid);
            double t = 0.0, cpu = 0.0;
            const an::SuiteReport rep = r.fused(*h, &t, &cpu);
            ++res.attempted;
            const bool ok = !rep.rejected && !rep.cancelled &&
                            !rep.deadlineExceeded && r.conserves(rep) &&
                            opDigest(rep, *h) == setup.digest;
            if (!ok) {
                ++res.failed;
                std::fprintf(stderr, "perfbench: op %llu output mismatch\n",
                             static_cast<unsigned long long>(res.attempted));
            }
            ms.add(t);
            rate.add(static_cast<double>(workUnits) / (cpu * 1e-3) / 1e6);
        }
        double pct = 0.0;
        const double tail = ms.tail(&pct);
        char extra[512];
        std::snprintf(
            extra, sizeof extra,
            ", \"ops\": %zu, \"nominal_op_s\": %.2f, \"tail_percentile\": "
            "%.2f, \"tail_ms\": %.3f, \"work_units\": %llu, "
            "\"units_per_instruction\": %zu, \"trace_instructions\": %llu, "
            "\"threads\": %u, \"p25_ms\": %.3f, \"p75_ms\": %.3f",
            ms.size(), nominalOpSeconds(a.workload), pct, tail,
            static_cast<unsigned long long>(workUnits), units,
            static_cast<unsigned long long>(setup.instructions), r.threads,
            ms.quantile(0.25), ms.quantile(0.75));
        printStamp(a, extra + std::string(", \"op_ms\": ") + jsonArray(ms.v) +
                          ", \"minstr_per_cpu_s\": " + jsonArray(rate.v));
        res.add("op_p50_ms", ms.median(), "ms");
        res.add("minstr_per_cpu_s", rate.median(), "Minstr/cpu-s");
        res.add("peak_rss_mb", peakRssMb(), "MiB");
        res.add("ok_ratio",
                static_cast<double>(res.attempted - res.failed) /
                    static_cast<double>(res.attempted),
                "ratio");
        res.correct = res.failed == 0;
        std::printf("%s\n", res.json().c_str());
        return 0;
    }

    // ---- traced run ----
    Tracer tr;
    std::map<std::string, double> v;
    int op = 0, reps = 0;
    const bool rowsMatch = planLayers(r, setup.digest, a.seconds * 0.6, tr,
                                      op, res, &v, &reps);
    {
        // Wire codec of the plan this workload runs (plans with
        // profiler sinks are not wire-expressible; the sweep is).
        std::string json;
        an::PlanError err;
        auto h = planFor(a.workload, r.grid);
        if (an::writePlanJson(h->plan, &json, &err)) {
            const std::int64_t t0 = nowNs();
            an::StudyPlan back;
            (void)an::parsePlanJson(json, &back, &err);
            (void)an::writePlanJson(back, &json, &err);
            v["analysis.plan_json_us"] =
                static_cast<double>(nowNs() - t0) * 1e-3;
        }
    }
    if (!a.traceOut.empty() && !tr.writeChrome(a.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.traceOut.c_str());
        return 1;
    }
    char extra[128];
    std::snprintf(extra, sizeof extra, ", \"traced_ops\": %d", reps);
    printStamp(a, extra);
    addLayerMetrics(res, v);
    res.correct = res.failed == 0 && rowsMatch;
    std::printf("%s\n", res.json().c_str());
    return 0;
}

// ---- serving -------------------------------------------------------------

std::vector<WirePlan>
loadPopulation(const Args &a, const SetupData &setup)
{
    std::vector<WirePlan> plans = population(a.seed);
    for (std::size_t i = 0; i < plans.size() && i < setup.plans.size(); ++i) {
        plans[i].digest = setup.plans[i].first;
        plans[i].instructions = setup.plans[i].second;
    }
    return plans;
}

/**
 * @p wp with its own deadline_ms: a distinct fingerprint, and so a
 * distinct report-cache key, that changes no row.
 */
bool
withDeadline(const WirePlan &wp, std::uint64_t ms, WirePlan *out)
{
    an::StudyPlan sp;
    an::PlanError err;
    *out = wp;
    if (!an::parsePlanJson(wp.json, &sp, &err) ||
        !an::writePlanJson(sp.deadlineMs(ms), &out->json, &err)) {
        std::fprintf(stderr, "perfbench: %s\n", err.render().c_str());
        return false;
    }
    return true;
}

/**
 * The plans a stream sends. serve_mix sends the population as is.
 * serve_miss sends every request with its own deadline_ms, as a client
 * that attaches its own timeout to each request does: no reply can
 * come from the report cache, so the daemon answers each from the
 * tenant's result memos. Each request then gets its own plan and
 * reqs[i].plan = i. @p serial numbers the deadlines across streams.
 */
bool
streamPlans(const Args &a, const std::vector<WirePlan> &plans,
            std::vector<Request> *reqs, std::uint64_t *serial,
            std::vector<WirePlan> *out)
{
    if (a.workload != "serve_miss") {
        *out = plans;
        return true;
    }
    out->assign(reqs->size(), WirePlan{});
    for (std::size_t i = 0; i < reqs->size(); ++i) {
        if (!withDeadline(plans[(*reqs)[i].plan],
                          kWarmDeadlineMs + 1000 + (*serial)++, &(*out)[i]))
            return false;
        (*reqs)[i].plan = i;
    }
    return true;
}

std::vector<std::string>
daemonArgs(const Args &a)
{
    return {"--dir", storeDir(a), "--max-concurrent", "4", "--max-queued",
            "64"};
}

/** The daemon's /statsz body (daemon.* counters). */
std::string
statsz(unsigned port)
{
    return httpCall(port, "GET", "/statsz", "").body;
}

int
runServeMix(const Args &a, const SetupData &setup)
{
    warmCompressor();
    const std::vector<WirePlan> plans = loadPopulation(a, setup);
    if (setup.plans.size() != plans.size()) {
        std::fprintf(stderr, "perfbench: setup has %zu plan digests, "
                             "population has %zu\n",
                     setup.plans.size(), plans.size());
        return 1;
    }
    Daemon d;
    std::string why;
    if (!d.start(PERFBENCH_SIGCOMPD, daemonArgs(a), &why)) {
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        return 1;
    }
    Result res;
    // Unmeasured warm-up, so the measured window sees the daemon's
    // steady state: every tenant runs every plan once (its traces
    // load, its pipelines' results are computed), then a short
    // stream at the offered rate settles the report cache into the
    // Zipf mix. The report cache is shared by all tenants, so each
    // tenant's copy carries its own far-off deadline: a distinct
    // fingerprint that changes no row. The replies are still checked.
    std::vector<WirePlan> warmPlans;
    std::vector<Request> warm;
    for (std::size_t p = 0; p < kPopulation; ++p) {
        for (std::size_t t = 0; t < std::size(kTenants); ++t) {
            WirePlan wp;
            if (!withDeadline(plans[p], kWarmDeadlineMs + t, &wp))
                return 1;
            warm.push_back({0.0, warmPlans.size(), kTenants[t]});
            warmPlans.push_back(std::move(wp));
        }
    }
    for (const Outcome &o : drive(d.port(), warmPlans, warm)) {
        ++res.attempted;
        res.failed += !o.ok;
    }
    std::uint64_t serial = 0;
    {
        std::vector<Request> settle =
            schedule(a.seed + 100, kServeRate, kWarmupSeconds);
        std::vector<WirePlan> sent;
        if (!streamPlans(a, plans, &settle, &serial, &sent))
            return 1;
        for (const Outcome &o : drive(d.port(), sent, settle)) {
            ++res.attempted;
            res.failed += !o.ok;
        }
    }

    if (a.trace == 0) {
        std::vector<Request> reqs = schedule(a.seed, kServeRate, a.seconds);
        std::vector<WirePlan> sent;
        if (!streamPlans(a, plans, &reqs, &serial, &sent))
            return 1;
        const double cpu0 = cpuSeconds(d.pid());
        const std::vector<Outcome> out = drive(d.port(), sent, reqs);
        const double cpu = cpuSeconds(d.pid()) - cpu0;
        const double rss = peakRssMb(d.pid());
        Samples lat, late;
        std::vector<Samples> windows(static_cast<std::size_t>(
            std::ceil(a.seconds / kWindowSeconds)));
        double units = 0.0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            ++res.attempted;
            lat.add(out[i].latencyMs);
            windows[std::min(windows.size() - 1,
                             static_cast<std::size_t>(reqs[i].due /
                                                      kWindowSeconds))]
                .add(out[i].latencyMs);
            late.add(out[i].lateMs);
            if (!out[i].ok) {
                ++res.failed;
                continue;
            }
            // Delivered work: a correct reply carries its plan's
            // results whether the daemon replayed, adopted memos or
            // answered from the report cache.
            const WirePlan &wp = sent[reqs[i].plan];
            units += static_cast<double>(wp.pipes * wp.instructions);
        }
        const bool clean = d.stop(&why);
        if (!clean)
            std::fprintf(stderr, "perfbench: %s\n", why.c_str());
        // The tail is taken per window and the median reported, so a
        // host hiccup inside one window does not set the run's tail. It
        // is the window's p90, not its p95: replies take under 1 ms, so
        // a p95 sits on the host's 2-17 ms preemption stalls.
        const double pct = 90.0;
        Samples tails;
        for (const Samples &w : windows)
            tails.add(w.quantile(pct / 100.0));
        const double tail = tails.median();
        char extra[512];
        std::snprintf(extra, sizeof extra,
                      ", \"requests\": %zu, \"offered_rps\": %.1f, "
                      "\"tail_percentile\": %.2f, \"tail_ms\": %.3f, "
                      "\"population\": %zu, "
                      "\"zipf_s\": %.2f, \"client_threads\": %u, "
                      "\"daemon_cpu_s\": %.3f, \"gen_late_p99_ms\": %.3f, "
                      "\"work_units\": %.0f",
                      out.size(), kServeRate, pct, tail, plans.size(), kZipfS,
                      clientThreads(), cpu, late.quantile(0.99), units);
        char quant[256];
        std::snprintf(quant, sizeof quant,
                      ", \"latency_ms\": {\"p90\": %.3f, \"p95\": %.3f, "
                      "\"p98\": %.3f, \"p99\": %.3f, \"p99.9\": %.3f, "
                      "\"max\": %.3f}",
                      lat.quantile(0.90), lat.quantile(0.95),
                      lat.quantile(0.98), lat.quantile(0.99),
                      lat.quantile(0.999), lat.quantile(1.0));
        printStamp(a, extra + std::string(quant) +
                          ", \"window_tails_ms\": " + jsonArray(tails.v));
        res.add("op_p50_ms", lat.median(), "ms");
        res.add("minstr_per_cpu_s", units / std::max(cpu, 1e-3) / 1e6,
                "Minstr/cpu-s");
        res.add("peak_rss_mb", rss, "MiB");
        res.add("ok_ratio",
                static_cast<double>(res.attempted - res.failed) /
                    static_cast<double>(std::max<std::uint64_t>(res.attempted, 1)),
                "ratio");
        res.correct = res.failed == 0 && clean;
        std::printf("%s\n", res.json().c_str());
        return 0;
    }

    // ---- traced run: a serial breakdown pass, then the rate ladder --
    std::map<std::string, double> v;
    Tracer tr;
    const std::string stats0 = statsz(d.port());
    std::uint64_t posts = 0, rejects = 0;

    std::vector<Request> pass =
        schedule(a.seed + 1, kServeRate, a.seconds * 0.25);
    std::vector<WirePlan> passPlans;
    if (!streamPlans(a, plans, &pass, &serial, &passPlans))
        return 1;
    Samples hit, miss, parseUs, fpUs, jsonUs;
    int op = 0;
    const double serialEnd = nowSec() + a.seconds * 0.3;
    for (const Request &q : pass) {
        if (nowSec() > serialEnd)
            break;
        const WirePlan &wp = passPlans[q.plan];
        const long long h0 =
            jsonInt(statsz(d.port()), "daemon.report_cache_hits");
        ++op;
        const int root = tr.open("op", op);
        {
            Scope s(tr, "server.http_parse", op);
            const std::int64_t t0 = nowNs();
            server::HttpRequestParser parser;
            (void)parser.consume(
                httpRequest("POST", "/v1/run", wp.json, q.tenant));
            parseUs.add(static_cast<double>(nowNs() - t0) * 1e-3);
        }
        an::StudyPlan p;
        an::PlanError err;
        {
            Scope s(tr, "analysis.plan_json", op);
            const std::int64_t t0 = nowNs();
            std::string back;
            (void)an::parsePlanJson(wp.json, &p, &err);
            (void)an::writePlanJson(p, &back, &err);
            jsonUs.add(static_cast<double>(nowNs() - t0) * 1e-3);
        }
        {
            Scope s(tr, "server.fingerprint", op);
            const std::int64_t t0 = nowNs();
            std::string fp;
            (void)an::planFingerprint(p, &fp, &err);
            fpUs.add(static_cast<double>(nowNs() - t0) * 1e-3);
        }
        HttpReply reply;
        double rtMs = 0.0;
        {
            Scope s(tr, "server.round_trip", op);
            const std::int64_t t0 = nowNs();
            reply = httpCall(d.port(), "POST", "/v1/run", wp.json, q.tenant);
            rtMs = static_cast<double>(nowNs() - t0) * 1e-6;
        }
        tr.close(root);
        ++posts;
        ++res.attempted;
        rejects += reply.status == 503;
        if (reply.status != 200 || rowsDigest(reply.body) != wp.digest)
            ++res.failed;
        const bool wasHit =
            jsonInt(statsz(d.port()), "daemon.report_cache_hits") - h0 == 1;
        (wasHit ? hit : miss).add(rtMs);
    }

    v["server.http_parse_us"] = parseUs.median();
    v["server.fingerprint_us"] = fpUs.median();
    v["server.hit_ms"] = hit.median();
    v["server.miss_ms"] = miss.median();
    v["server.requests"] = static_cast<double>(posts);
    const std::string stats1 = statsz(d.port());
    auto delta = [&](const char *metric) {
        return static_cast<double>(jsonInt(stats1, metric) -
                                   jsonInt(stats0, metric));
    };
    v["server.cache_hit_ratio"] =
        delta("daemon.report_cache_hits") /
        static_cast<double>(std::max<std::uint64_t>(posts, 1));
    v["server.evictions"] = delta("daemon.report_cache_evictions");
    v["server.dedupe_joins"] = delta("daemon.dedupe_joins");
    v["server.runs"] = delta("daemon.runs");
    v["server.rejects"] = static_cast<double>(rejects);

    // Rate ladder, last because its top steps overload the client
    // connections: the highest rate whose tail latency meets the
    // limit with every reply 200 and no growing backlog. A refused or
    // failed request misses the limit and ends the ladder; only a 200
    // reply with wrong rows counts as a failed op.
    double slo = 0.0, genLate = 0.0;
    std::string ladder;
    for (std::size_t k = 0; k < std::size(kLadder); ++k) {
        std::vector<Request> reqs =
            schedule(a.seed + 2 + k, kLadder[k], kLadderStepSeconds);
        std::vector<WirePlan> sent;
        if (!streamPlans(a, plans, &reqs, &serial, &sent))
            return 1;
        const std::vector<Outcome> out = drive(d.port(), sent, reqs);
        Samples lat, late, head, tailLate;
        std::size_t refused = 0;
        for (std::size_t i = 0; i < out.size(); ++i) {
            ++res.attempted;
            refused += out[i].status != 200;
            res.failed += out[i].status == 200 && !out[i].ok;
            lat.add(out[i].latencyMs);
            late.add(out[i].lateMs);
            (i < out.size() / 4 ? head : tailLate).add(out[i].lateMs);
        }
        double pct = 0.0;
        const double tail = lat.tail(&pct);
        const bool growing =
            tailLate.size() > 0 &&
            tailLate.median() > head.median() + 0.5 * kSloLimitMs;
        if (kLadder[k] == kServeRate)
            genLate = late.quantile(0.99);
        char row[160];
        std::snprintf(row, sizeof row,
                      "%s{\"rps\": %.0f, \"requests\": %zu, \"refused\": "
                      "%zu, \"tail_ms\": %.3f, \"growing\": %s}",
                      k ? ", " : "", kLadder[k], out.size(), refused, tail,
                      growing ? "true" : "false");
        ladder += row;
        if (refused != 0 || growing || tail > kSloLimitMs ||
            res.failed != 0)
            break;
        slo = kLadder[k];
    }
    v["server.gen_late_ms"] = genLate;
    v["server.slo_rps"] = slo;
    v["analysis.plan_json_us"] = jsonUs.median();
    // The request breakdown's own root self time and wall are
    // stamped; the analysis.* metrics come from the plan breakdown.
    Samples reqUn, reqMs;
    for (int i = 1; i <= op; ++i)
        reqUn.add(tr.selfMs(i)["op"]);
    for (const Tracer::Span &s : tr.spans())
        if (s.name == "op")
            reqMs.add(static_cast<double>(s.endNs - s.startNs) * 1e-6);
    {
        // Report serialisation, on the reply shapes the daemon sends.
        an::SessionConfig sc;
        sc.threads = kPaperThreads;
        sc.storeDir = storeDir(a);
        sc.readOnly = true;
        an::Session session(sc);
        Samples rep;
        for (std::size_t i = 0; i < std::min<std::size_t>(8, plans.size()); ++i) {
            an::StudyPlan p;
            an::PlanError err;
            (void)an::parsePlanJson(plans[i].json, &p, &err);
            const an::SuiteReport r = session.run(p);
            const std::int64_t t0 = nowNs();
            (void)r.toJson();
            rep.add(static_cast<double>(nowNs() - t0) * 1e-6);
        }
        v["analysis.report_ms"] = rep.median();
    }
    const bool clean = d.stop(&why);
    if (!clean)
        std::fprintf(stderr, "perfbench: %s\n", why.c_str());

    // The engine under the daemon, layer by layer: the paper plan
    // broken down over the same prewarmed store, and from an empty one
    // for capture, save and quanta. Its analysis.report_ms is the
    // paper report's; the serving one above is kept.
    bool rowsMatch = false;
    int reps = 0;
    {
        PlanRunner r;
        r.workload = "paper_warm";
        r.store = storeDir(a);
        std::map<std::string, double> pv;
        rowsMatch = planLayers(r, setup.digest, a.seconds * 0.4, tr, op, res,
                               &pv, &reps);
        for (const auto &[k, x] : pv)
            if (k != "analysis.report_ms")
                v[k] = x;
    }
    if (!a.traceOut.empty() && !tr.writeChrome(a.traceOut)) {
        std::fprintf(stderr, "perfbench: cannot write %s\n",
                     a.traceOut.c_str());
        return 1;
    }
    printStamp(a, ", \"slo_limit_ms\": " + std::to_string(kSloLimitMs) +
                      ", \"ladder\": [" + ladder + "]" +
                      ", \"traced_plan_ops\": " + std::to_string(reps) +
                      ", \"request_op_ms\": " + std::to_string(reqMs.median()) +
                      ", \"request_unattributed_ms\": " +
                      std::to_string(reqUn.median()));
    addLayerMetrics(res, v);
    res.correct = res.failed == 0 && clean && rowsMatch;
    std::printf("%s\n", res.json().c_str());
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench setup --workload W --seed N --dir D\n"
                 "       perfbench run --workload W --seed N --seconds S "
                 "--trace 0|1 --dir D [--commit C] [--trace-out F]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string buildType = PERFBENCH_BUILD_TYPE;
    const std::string sanitize = PERFBENCH_SANITIZE;
    if ((buildType != "Release" && buildType != "RelWithDebInfo") ||
        (sanitize != "off" && sanitize != "OFF" && sanitize != "")) {
        std::fprintf(stderr,
                     "perfbench: refusing to time a %s build (sanitizer "
                     "%s); configure with -DCMAKE_BUILD_TYPE=Release\n",
                     buildType.c_str(), sanitize.c_str());
        return 2;
    }
    if (argc < 2)
        return usage();
    Args a;
    a.mode = argv[1];
    for (int i = 2; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v, nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, nullptr);
        else if (k == "--trace")
            a.trace = std::atoi(v);
        else if (k == "--dir")
            a.dir = v;
        else if (k == "--commit")
            a.commit = v;
        else if (k == "--trace-out")
            a.traceOut = v;
        else
            return usage();
    }
    if (a.workload.empty() || a.dir.empty())
        return usage();
    if (!isPlanWorkload(a.workload) && a.workload != "serve_mix" &&
        a.workload != "serve_miss") {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     a.workload.c_str());
        return 2;
    }
    if (a.mode == "setup")
        return doSetup(a);
    if (a.mode != "run")
        return usage();
    SetupData setup;
    if (!readSetup(a, &setup)) {
        std::fprintf(stderr, "perfbench: no setup under %s\n", a.dir.c_str());
        return 1;
    }
    return isPlanWorkload(a.workload) ? runPlanWorkload(a, setup)
                                      : runServeMix(a, setup);
}

#include "analysis/session.h"

#include <algorithm>
#include <chrono>
#include <iterator>
#include <utility>

#include "analysis/profilers.h"
#include "common/logging.h"
#include "common/telemetry.h"
#include "isa/opcodes.h"
#include "pipeline/runner.h"
#include "workloads/workload.h"

namespace sigcomp::analysis
{

using pipeline::Design;
using pipeline::InOrderPipeline;
using pipeline::PipelineConfig;

namespace
{

double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Session::Session(SessionConfig config, std::shared_ptr<TraceCache> cache)
    : config_(std::move(config)),
      cache_(cache != nullptr ? std::move(cache)
                              : std::make_shared<TraceCache>(config_))
{
    SC_ASSERT(!(config_.readOnly && config_.storeDir.empty()),
              "SessionConfig.readOnly requires storeDir: a read-only "
              "session needs a store to read from");
    const std::shared_ptr<const store::TraceStore> store = cache_->store();
    SC_ASSERT(cache_->captureLimit() == config_.captureLimit &&
                  (store == nullptr
                       ? config_.storeDir.empty()
                       : store->dir() == config_.storeDir &&
                             store->readOnly() == config_.readOnly),
              "Session: the shared TraceCache's store binding and "
              "capture limit must match the SessionConfig");
    if (config_.threads != 0)
        exec_ = std::make_unique<ParallelExecutor>(config_.threads);
}

Session &
Session::defaultSession()
{
    static Session session;
    return session;
}

ParallelExecutor &
Session::executor() const
{
    return exec_ ? *exec_ : ParallelExecutor::global();
}

TraceCache::TracePtr
Session::trace(const std::string &workload)
{
    return cache_->get(workload);
}

void
Session::prewarm(const std::vector<std::string> &names)
{
    executor().parallelFor(names.size(),
                           [&](std::size_t i) { cache_->get(names[i]); });
}

void
Session::addWorkload(const std::string &name, isa::Program program)
{
    cache_->registerProgram(name, std::move(program));
}

Session::Admission
Session::admitPlan(const CancelToken &token, std::string *why)
{
    if (config_.maxConcurrentPlans == 0) {
        admitted_.inc();
        return Admission::Admitted;
    }
    UniqueLock lock(admissionMu_);
    if (runningPlans_ < config_.maxConcurrentPlans) {
        ++runningPlans_;
        admitted_.inc();
        return Admission::Admitted;
    }
    if (queuedPlans_ >= config_.maxQueuedPlans) {
        *why = "session at capacity: " +
               std::to_string(runningPlans_) + " plans running, " +
               std::to_string(queuedPlans_) + " queued (limits: " +
               std::to_string(config_.maxConcurrentPlans) +
               " running, " + std::to_string(config_.maxQueuedPlans) +
               " queued)";
        rejected_.inc();
        return Admission::Rejected;
    }
    ++queuedPlans_;
    queueDepth_.add(1);
    // Bounded wait for a slot, polling the plan's own token: a
    // deadline that expires in the queue turns into a partial
    // (empty) report, not a rejection — the caller asked for time,
    // not for a place in line.
    while (runningPlans_ >= config_.maxConcurrentPlans) {
        if (token.stopRequested()) {
            --queuedPlans_;
            queueDepth_.add(-1);
            return Admission::Stopped;
        }
        admissionCv_.wait_for(lock.native(),
                              std::chrono::milliseconds(2));
    }
    --queuedPlans_;
    queueDepth_.add(-1);
    ++runningPlans_;
    admitted_.inc();
    return Admission::Admitted;
}

void
Session::releaseSlot()
{
    if (config_.maxConcurrentPlans == 0)
        return;
    {
        MutexLock lock(admissionMu_);
        --runningPlans_;
    }
    admissionCv_.notify_all();
}

SuiteReport
Session::run(const StudyPlan &plan)
{
    // The run's effective stop signal: the plan's external token (if
    // any) min-combined with its deadline budget. Both are carried
    // by value in one CancelToken.
    CancelToken token = plan.cancel_;
    if (plan.hasDeadline_) {
        token = token.withDeadlineAfter(
            std::chrono::milliseconds(plan.deadlineMs_));
    }

    std::string why;
    const Admission verdict = admitPlan(token, &why);
    if (verdict == Admission::Rejected) {
        SuiteReport rep;
        rep.workloads = plan.workloads_.empty()
                            ? workloads::Suite::names()
                            : plan.workloads_;
        rep.profileSinks = plan.profilers_.size();
        rep.rejected = true;
        rep.rejectReason = why;
        SC_WARN("session: plan rejected: ", why);
        return rep;
    }

    SuiteReport rep;
    try {
        SIGCOMP_SPAN("session.run");
        // A token that fired in the queue (Stopped) still runs the
        // study executor: with the token already hot it performs no
        // engine work and assembles the empty partial report with
        // the right outcome flags.
        rep = runStudies(plan, token);
    } catch (...) {
        if (verdict == Admission::Admitted)
            releaseSlot();
        throw;
    }
    if (verdict == Admission::Admitted)
        releaseSlot();
    return rep;
}

SuiteReport
Session::runStudies(const StudyPlan &plan, const CancelToken &token)
{
    const double t0 = nowMs();
    // Hot-path convention: nullptr = uncancellable, so a plain plan
    // pays no per-block token polls at all.
    const CancelToken *cancel = token.canStop() ? &token : nullptr;
    // The run's outcome flags, evaluated at assembly time (the
    // deadline may fire at any point). An explicit cancel wins.
    auto stampOutcome = [&](SuiteReport &r) {
        switch (token.reason()) {
        case CancelReason::Cancelled:
            r.cancelled = true;
            break;
        case CancelReason::DeadlineExceeded:
            r.deadlineExceeded = true;
            break;
        case CancelReason::None:
            break;
        }
    };

    SuiteReport rep;
    const std::vector<std::string> names =
        plan.workloads_.empty() ? workloads::Suite::names()
                                : plan.workloads_;
    rep.workloads = names;
    rep.profileSinks = plan.profilers_.size();

    ParallelExecutor &exec = executor();
    rep.threads = exec.threadCount();

    if (!plan.hasStudies() || names.empty()) {
        stampOutcome(rep);
        rep.wallMs = nowMs() - t0;
        return rep;
    }

    // One metrics system: the baseline snapshot of the cache's
    // registry (engine accounting, health counters, store I/O) is
    // diffed against the post-run state to yield this run's deltas.
    const telemetry::Snapshot tele0 = cache_->metrics().snapshot();
    const std::size_t degradations0 = cache_->degradations().size();

    /**
     * One workload's results: one PipelineResult per plan column, in
     * the canonical order the pipelines are built in (every CPI
     * study's columns, designs then width points; then one per
     * activity study; then one per energy study).
     */
    struct Harvest
    {
        std::vector<pipeline::PipelineResult> results;
        DWord instructions = 0;
        std::uint64_t replayDelta = 0;
        /** This workload's fork of each plan profiler, in plan order. */
        std::vector<std::unique_ptr<Profiler>> forks;
        /**
         * True when this workload's whole fused pass ran. A stopped
         * run assembles rows ONLY from completed harvests — a
         * partial report's coverage shrinks; its rows never do.
         */
        bool completed = false;
    };
    std::vector<Harvest> harvest(names.size());

    /** One workload's pipelines, in the canonical harvest order. */
    struct Fused
    {
        std::vector<std::unique_ptr<InOrderPipeline>> owned;
        std::vector<InOrderPipeline *> raw;
    };
    // Every study's pipelines over one trace. One replayPipelines
    // call replays the trace exactly once: same-key pipelines share
    // a quanta group, every group and every profiler fork is fed
    // from the same materialised blocks.
    auto buildPipelines = [&plan] {
        Fused f;
        auto add = [&](const auto &column, const PipelineConfig &cfg) {
            f.owned.push_back(pipeline::makePipeline(column, cfg));
            f.raw.push_back(f.owned.back().get());
        };
        for (const StudyPlan::CpiSpec &s : plan.cpi_) {
            for (Design d : s.designs)
                add(d, s.config);
            for (const pipeline::StageWidths &w : s.widths)
                add(w, s.config);
        }
        for (sig::Encoding enc : plan.activity_) {
            add(enc == sig::Encoding::Half1 ? Design::HalfwordSerial
                                            : Design::ByteSerial,
                suiteConfig(enc));
        }
        for (const StudyPlan::EnergySpec &e : plan.energy_)
            add(e.design, suiteConfig(e.enc));
        return f;
    };

    // Workload i's results are complete: harvest them, persist newly
    // recorded SharedQuanta into the workload's segment (so
    // warm-store *processes* skip the quanta front half too) and
    // evict when the plan asks.
    auto finish = [&](std::size_t i, const cpu::TraceBuffer &trace,
                      std::vector<pipeline::PipelineResult> results,
                      std::uint64_t replay_delta,
                      std::vector<std::unique_ptr<Profiler>> forks) {
        Harvest &h = harvest[i];
        h.results = std::move(results);
        h.instructions = trace.runResult().instructions;
        h.replayDelta = replay_delta;
        h.forks = std::move(forks);
        h.completed = true;
        cache_->persistAnnexes(names[i], trace, cancel);
        if (plan.evictAfterReplay_)
            cache_->evict(names[i]);
    };

    // Workload i's fused pass, over its trace fetched here (loaded
    // or captured).
    auto runOne = [&](std::size_t i) {
        // One span per workload's fused pass; on a parallel executor
        // these land on the per-worker tracks.
        SIGCOMP_SPAN("session.replay");
        if (cancelRequested(cancel))
            return;
        TraceCache::TracePtr trace;
        while (trace == nullptr) {
            try {
                trace = cache_->get(names[i], cancel);
            } catch (const CancelledError &) {
                // Ours, or a concurrent plan's: a cancelled capture
                // unblocks every waiter on that workload with
                // CancelledError. If OUR token is live the trace is
                // still wanted — retry (this call becomes the new
                // capture winner). If ours fired, wind down.
                if (cancelRequested(cancel))
                    return;
            }
        }
        const std::uint64_t replays0 = trace->replayCount();

        Fused pipes = buildPipelines();
        // The workload's own profilers: no two workloads share one,
        // so they replay in parallel and merge later in suite order.
        std::vector<std::unique_ptr<Profiler>> forks;
        std::vector<cpu::TraceSink *> sinks;
        for (const Profiler *p : plan.profilers_) {
            forks.push_back(p->fork());
            sinks.push_back(forks.back().get());
        }
        try {
            pipeline::replayPipelines(*trace, pipes.raw, sinks, cancel);
        } catch (const CancelledError &) {
            // Aborted mid-replay: nothing was published on the trace
            // and nothing is harvested for this workload. The partial
            // report simply doesn't cover it.
            return;
        }
        std::vector<pipeline::PipelineResult> results;
        results.reserve(pipes.owned.size());
        for (const std::unique_ptr<InOrderPipeline> &p : pipes.owned)
            results.push_back(p->result());
        finish(i, *trace, std::move(results),
               trace->replayCount() - replays0, std::move(forks));
    };

    // The plan's `result:` memo keys, one per column in harvest
    // order, derived once from one fresh pipeline per column. Empty
    // when the plan has profilers (they always replay) or a column
    // is not memo-eligible: then every workload replays.
    std::vector<std::string> memoKeys;
    if (plan.profilers_.empty()) {
        const Fused columns = buildPipelines();
        for (const std::unique_ptr<InOrderPipeline> &p : columns.owned) {
            if (!pipeline::memoEligible(*p)) {
                memoKeys.clear();
                break;
            }
            memoKeys.push_back(pipeline::resultKey(*p));
        }
    }
    // A resident trace that holds every column's memo answers its
    // workload without a load or a replay: the memos are copied on
    // the calling thread, since waking the executor would cost more
    // than the answer.
    auto answerFromMemos = [&](std::size_t i) {
        const TraceCache::TracePtr trace = cache_->resident(names[i]);
        if (trace == nullptr)
            return false;
        std::vector<pipeline::PipelineResult> results;
        results.reserve(memoKeys.size());
        for (const std::string &key : memoKeys) {
            const auto memo =
                std::static_pointer_cast<const pipeline::PipelineResult>(
                    trace->annexGet(key));
            if (memo == nullptr)
                return false;
            results.push_back(*memo);
        }
        finish(i, *trace, std::move(results), 0, {});
        return true;
    };
    // Only the workloads the memos cannot answer go to the fan-out,
    // one task per workload: each fetches (loads or captures) its
    // own trace, so an evicting plan holds at most one trace per
    // thread.
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < names.size(); ++i) {
        if (memoKeys.empty() || cancelRequested(cancel) ||
            !answerFromMemos(i))
            pending.push_back(i);
    }
    exec.parallelFor(
        pending.size(), [&](std::size_t k) { runOne(pending[k]); },
        cancel);

    // ---- assemble the report in study registration order ----------
    // A stopped run covers the completed workloads only: every row
    // present is the exact full-pass result (bit-identical to an
    // unstopped run's row for that workload); incomplete workloads
    // contribute nothing, not partial numbers.
    std::vector<std::size_t> done;
    done.reserve(names.size());
    for (std::size_t w = 0; w < names.size(); ++w)
        if (harvest[w].completed)
            done.push_back(w);
    std::vector<std::string> done_names;
    done_names.reserve(done.size());
    for (std::size_t w : done)
        done_names.push_back(names[w]);
    // Suite order, completed workloads only: the caller's profilers
    // end up as one serial feed of the covered workloads leaves them.
    for (std::size_t w : done) {
        for (std::size_t p = 0; p < plan.profilers_.size(); ++p)
            plan.profilers_[p]->merge(*harvest[w].forks[p]);
    }

    // `column` walks the harvest order.
    std::size_t column = 0;
    rep.cpi.resize(plan.cpi_.size());
    for (std::size_t s = 0; s < plan.cpi_.size(); ++s) {
        CpiStudyResult &st = rep.cpi[s];
        st.designs = plan.cpi_[s].designs;
        st.widths = plan.cpi_[s].widths;
        st.benchmarks = done_names;
        st.results.resize(done.size());
        const auto first = static_cast<std::ptrdiff_t>(column);
        column += st.columns();
        for (std::size_t r = 0; r < done.size(); ++r) {
            auto row = harvest[done[r]].results.begin();
            st.results[r].assign(
                std::make_move_iterator(row + first),
                std::make_move_iterator(
                    row + static_cast<std::ptrdiff_t>(column)));
        }
    }
    rep.activity.resize(plan.activity_.size());
    for (std::size_t s = 0; s < plan.activity_.size(); ++s, ++column) {
        ActivityStudyResult &st = rep.activity[s];
        st.encoding = plan.activity_[s];
        st.rows.resize(done.size());
        for (std::size_t r = 0; r < done.size(); ++r) {
            st.rows[r] = {done_names[r],
                          harvest[done[r]].results[column].activity};
        }
    }
    rep.energy.resize(plan.energy_.size());
    for (std::size_t s = 0; s < plan.energy_.size(); ++s, ++column) {
        EnergyStudyResult &st = rep.energy[s];
        st.design = plan.energy_[s].design;
        st.encoding = plan.energy_[s].enc;
        st.tech = plan.energy_[s].tech;
        st.rows.resize(done.size());
        pipeline::ActivityTotals sum;
        for (std::size_t r = 0; r < done.size(); ++r) {
            const pipeline::PipelineResult &pr =
                harvest[done[r]].results[column];
            st.rows[r] = {done_names[r], pr.instructions,
                          power::buildEnergyReport(pr.activity,
                                                   st.tech)};
            sum += pr.activity;
        }
        st.total = power::buildEnergyReport(sum, st.tech);
    }
    for (const Harvest &h : harvest) {
        rep.instructions += h.instructions;
        rep.replayPasses += h.replayDelta;
    }
    stampOutcome(rep);
    // Health + accounting deltas: what THIS run cost. The study
    // results above are already assembled — the metrics can only
    // describe engine/recovery work, never change a row.
    rep.telemetry =
        telemetry::Snapshot::delta(tele0, cache_->metrics().snapshot());
    rep.captures = rep.telemetry.value("cache.captures");
    rep.storeLoads = rep.telemetry.value("cache.store_loads");
    rep.storeLoadFailures =
        rep.telemetry.value("cache.store_load_failures");
    rep.quarantinedSegments =
        rep.telemetry.value("cache.quarantined_segments");
    rep.retries = rep.telemetry.value("store.retries");
    const std::vector<std::string> events = cache_->degradations();
    rep.degradations.assign(
        events.begin() +
            static_cast<std::ptrdiff_t>(
                std::min(degradations0, events.size())),
        events.end());
    rep.wallMs = nowMs() - t0;
    return rep;
}

const sig::InstrCompressor &
suiteCompressor()
{
    // The suite's R-format funct ranking, most frequent first (paper
    // Table 3; tests/golden/paper.txt pins it). test_analysis checks
    // that profiling the suite still reproduces it exactly.
    using isa::Funct;
    static const sig::InstrCompressor compressor = [] {
        std::vector<std::uint8_t> ranking;
        for (Funct f : {Funct::Addu, Funct::Sll, Funct::Mflo, Funct::Mult,
                        Funct::Slt, Funct::Srl, Funct::Xor, Funct::Or})
            ranking.push_back(static_cast<std::uint8_t>(f));
        return sig::InstrCompressor(ranking);
    }();
    return compressor;
}

PipelineConfig
suiteConfig(sig::Encoding enc)
{
    PipelineConfig cfg;
    cfg.encoding = enc;
    cfg.compressor = suiteCompressor();
    return cfg;
}

} // namespace sigcomp::analysis

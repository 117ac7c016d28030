#include "pipeline/runner.h"

#include <algorithm>

#include "common/logging.h"
#include "common/telemetry.h"

namespace sigcomp::pipeline
{

namespace
{

/**
 * Annex key of a pipeline's memoised full-trace PipelineResult.
 * quantaKey() covers only what the design-independent quanta depend
 * on, so everything else the *result* depends on is appended: the
 * concrete type (custom designs may reuse a name), the design name,
 * and the scheduling-side configuration (ALU occupancies, branch
 * prediction) that plan()/schedule() consume.
 */
std::string
resultKey(const InOrderPipeline &p)
{
    const PipelineConfig &c = p.config();
    return "result:" + std::string(typeid(p).name()) + ":" + p.name() +
           ":" + p.quantaKey() + ":" + std::to_string(c.multCycles) +
           ":" + std::to_string(c.divCycles) + ":" +
           std::to_string(static_cast<int>(c.predictor)) + ":" +
           std::to_string(c.phtEntries) + ":" +
           std::to_string(c.btbEntries);
}

/**
 * Orchestrates one same-key group of pipelines over a replay: the
 * first pipeline records the design-independent quanta (or, when a
 * previous replay of this trace already recorded them, everyone
 * consumes the cached record) and the rest run as shared-quanta
 * consumers. See SharedQuanta in pipeline.h.
 */
class GroupReplaySink : public cpu::TraceSink
{
  public:
    GroupReplaySink(std::vector<InOrderPipeline *> pipes,
                    std::shared_ptr<const SharedQuanta> cached,
                    std::size_t trace_size)
        : pipes_(std::move(pipes)), cached_(std::move(cached))
    {
        if (!cached_) {
            recording_ = std::make_shared<SharedQuanta>();
            recording_->q.reserve(trace_size);
            recording_->blockDelta.reserve(
                trace_size / cpu::TraceView::defaultBlockSize + 2);
        }
    }

    void
    retire(const cpu::DynInstr &di) override
    {
        retireBlock(std::span<const cpu::DynInstr>(&di, 1));
    }

    void
    retireBlock(std::span<const cpu::DynInstr> block) override
    {
        // A record is only reusable by future replays if its block
        // deltas line up with TraceView's canonical block structure
        // (every block full-sized except possibly the last).
        if (saw_partial_)
            canonical_ = false;
        if (block.size() != cpu::TraceView::defaultBlockSize)
            saw_partial_ = true;

        if (cached_) {
            for (InOrderPipeline *p : pipes_)
                p->retireBlockShared(block, *cached_, base_, blockIndex_);
        } else {
            {
                // The design-independent front half: computed once
                // per group by the recording leader, shared by the
                // rest.
                SIGCOMP_SPAN("quanta.compute");
                pipes_.front()->retireBlockRecord(block, *recording_);
            }
            for (std::size_t i = 1; i < pipes_.size(); ++i) {
                pipes_[i]->retireBlockShared(block, *recording_, base_,
                                             blockIndex_);
            }
        }
        base_ += block.size();
        ++blockIndex_;
    }

    /**
     * After the replay: fill in the record's final hierarchy stats,
     * publish it on the trace (first writer wins), and hand every
     * consumer its cache statistics.
     */
    void
    finish(const cpu::TraceBuffer &trace)
    {
        std::shared_ptr<const SharedQuanta> rec = cached_;
        if (recording_) {
            recording_->l1i =
                pipes_.front()->hierarchy().l1i().stats();
            recording_->l1d =
                pipes_.front()->hierarchy().l1d().stats();
            recording_->l2 = pipes_.front()->hierarchy().l2().stats();
            // Publish for future replays of this trace (first writer
            // wins; a racing recording is identical by determinism).
            if (canonical_) {
                trace.annexStoreIfAbsent(
                    pipes_.front()->quantaKey(),
                    std::static_pointer_cast<void>(recording_),
                    recording_->bytes());
            }
            rec = recording_; // this replay's consumers used ours
        }
        const std::size_t first_consumer = recording_ ? 1 : 0;
        for (std::size_t i = first_consumer; i < pipes_.size(); ++i)
            pipes_[i]->adoptSharedStats(*rec);
    }

  private:
    std::vector<InOrderPipeline *> pipes_;
    std::shared_ptr<const SharedQuanta> cached_;
    std::shared_ptr<SharedQuanta> recording_;
    std::size_t base_ = 0;
    std::size_t blockIndex_ = 0;
    bool saw_partial_ = false;
    bool canonical_ = true;
};

/** A pipeline whose full-trace result may come from a memo. */
bool
memoEligible(const InOrderPipeline &p)
{
    return p.planIsPure() && p.pristine() && !p.observed();
}

} // namespace

bool
resultsMemoised(const cpu::TraceBuffer &trace,
                const std::vector<InOrderPipeline *> &pipes)
{
    return std::all_of(pipes.begin(), pipes.end(),
                       [&](const InOrderPipeline *p) {
                           return memoEligible(*p) &&
                                  trace.annexGet(resultKey(*p)) != nullptr;
                       });
}

cpu::RunResult
replayPipelines(const cpu::TraceBuffer &trace,
                const std::vector<InOrderPipeline *> &pipes,
                const std::vector<cpu::TraceSink *> &extra_sinks,
                const CancelToken *cancel)
{
    // A full-trace replay of a fresh pipeline is a pure function of
    // (trace, design, configuration), so its complete PipelineResult
    // is cached on the trace as an annex: a later replay of the same
    // design — e.g. the activity study's byte-serial pipeline after a
    // CPI study over all designs — adopts the memoised result and
    // skips its replay entirely. The same purity dedupes *within*
    // one call: when a fused study plan registers the same
    // (design, configuration) twice — a CPI study over all designs
    // next to an activity or energy study — only the first instance
    // replays and every duplicate adopts its result afterwards.
    // Only fresh, unobserved pipelines participate (an already-fed
    // pipeline accumulates; an observer makes the replay
    // side-effectful).
    std::vector<InOrderPipeline *> running;
    running.reserve(pipes.size());
    std::vector<std::pair<InOrderPipeline *, InOrderPipeline *>>
        followers; // (duplicate, its running leader)
    std::vector<std::pair<std::string, InOrderPipeline *>> leaders;
    for (InOrderPipeline *p : pipes) {
        if (memoEligible(*p)) {
            const std::string key = resultKey(*p);
            if (auto memo = std::static_pointer_cast<const PipelineResult>(
                    trace.annexGet(key))) {
                p->adoptResult(*memo);
                continue;
            }
            InOrderPipeline *leader = nullptr;
            for (const auto &[lkey, lp] : leaders) {
                if (lkey == key) {
                    leader = lp;
                    break;
                }
            }
            if (leader != nullptr) {
                followers.push_back({p, leader});
                continue;
            }
            leaders.push_back({key, p});
        }
        running.push_back(p);
    }

    // Partition the pipelines into same-quanta-key groups, each fed
    // through one GroupReplaySink so the design-independent front
    // half runs once per group (and once per process per trace, via
    // the annex cache) instead of once per pipeline.
    std::vector<std::string> group_keys;
    std::vector<std::vector<InOrderPipeline *>> groups;
    std::vector<bool> was_pristine;
    for (InOrderPipeline *p : running) {
        const bool pristine = memoEligible(*p);
        p->bindReplay(trace.program());
        const std::string key = p->quantaKey();
        bool placed = false;
        for (std::size_t g = 0; g < group_keys.size(); ++g) {
            if (group_keys[g] == key) {
                groups[g].push_back(p);
                placed = true;
                break;
            }
        }
        if (!placed) {
            group_keys.push_back(key);
            groups.push_back({p});
        }
        was_pristine.push_back(pristine);
    }

    std::vector<std::unique_ptr<GroupReplaySink>> group_sinks;
    std::vector<cpu::TraceSink *> sinks;
    sinks.reserve(groups.size() + extra_sinks.size());
    for (std::size_t g = 0; g < groups.size(); ++g) {
        auto cached = std::static_pointer_cast<const SharedQuanta>(
            trace.annexGet(group_keys[g]));
        group_sinks.push_back(std::make_unique<GroupReplaySink>(
            std::move(groups[g]), std::move(cached), trace.size()));
        sinks.push_back(group_sinks.back().get());
    }
    sinks.insert(sinks.end(), extra_sinks.begin(), extra_sinks.end());

    if (!sinks.empty()) {
        SIGCOMP_SPAN("replay.pass");
        const bool completed = cpu::TraceView(trace).replay(
            sinks, cpu::TraceView::defaultBlockSize, cancel);
        if (!completed) {
            // Aborted pass: every group sink holds a partial quanta
            // record and every pipeline partial counts. Publishing
            // any of it (finish(), the result memos, follower
            // adoption) would poison the trace's annex cache with
            // prefix state, so unwind instead of returning.
            throw CancelledError();
        }
    }
    for (auto &gs : group_sinks)
        gs->finish(trace);

    // Publish the replays just performed (first writer wins; racing
    // replays are identical by determinism).
    for (std::size_t i = 0; i < running.size(); ++i) {
        if (!was_pristine[i])
            continue;
        InOrderPipeline *p = running[i];
        auto memo = std::make_shared<PipelineResult>(p->result());
        const std::size_t bytes =
            sizeof(PipelineResult) + memo->name.size();
        trace.annexStoreIfAbsent(resultKey(*p),
                                 std::static_pointer_cast<void>(memo),
                                 bytes);
    }

    // Duplicates adopt their leader's finalized result — identical
    // by purity, without a second consumer pass.
    for (auto &[follower, leader] : followers)
        follower->adoptResult(leader->result());

    // Self-check/limit failures were already fatal at capture time
    // (deliberately truncated traces excepted), so the recorded
    // result can be returned as-is.
    return trace.runResult();
}

} // namespace sigcomp::pipeline

#include "pipeline/runner.h"

#include <optional>
#include <typeinfo>

#include "common/json.h"
#include "common/logging.h"
#include "common/telemetry.h"

namespace sigcomp::pipeline
{

namespace
{

/**
 * Feeds one same-quanta-key group of pipelines over a replay. When
 * the trace caches no SharedQuanta record for the key, a
 * QuantaRecorder writes one block by block ahead of the pipelines
 * and publishes it afterwards; otherwise the pipelines consume the
 * cached record. Either way every pipeline runs the same consume
 * body, over the dense entries and latch bases of each block, made
 * once per block for the group (by the recorder, or by a
 * SharedQuanta::Decoder that carries the record's per-instruction
 * predictions from block to block) into a block-sized scratch that
 * stays in L1, and the miss list from the position the sink carries
 * from block to block. See SharedQuanta in pipeline.h.
 */
class GroupReplaySink : public cpu::TraceSink
{
  public:
    GroupReplaySink(std::vector<InOrderPipeline *> pipes, std::string key,
                    const cpu::TraceBuffer &trace)
        : pipes_(std::move(pipes)), key_(std::move(key)),
          rec_(std::static_pointer_cast<const SharedQuanta>(
              trace.annexGet(key_)))
    {
        if (rec_) {
            decoder_.emplace(*rec_, trace.program(),
                             pipes_.front()->config().encoding);
        } else {
            recorder_ = std::make_unique<QuantaRecorder>(
                pipes_.front()->config(), trace.program());
            recording_ = std::make_shared<SharedQuanta>();
            recording_->hits.reserve((trace.size() + 63) / 64);
            rec_ = recording_;
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
        if (recorder_) {
            SIGCOMP_SPAN("quanta.compute");
            recorder_->recordBlock(block, *recording_, entries_,
                                   latchBase_);
        } else {
            decoder_->expandBlock(block, entries_, latchBase_);
        }
        const std::span<const SharedQuanta::Miss> misses =
            std::span(rec_->misses).subspan(missAt_);
        for (InOrderPipeline *p : pipes_)
            p->retireBlockShared(block, base_, entries_, latchBase_,
                                 misses);
        base_ += block.size();
        while (missAt_ < rec_->misses.size() &&
               rec_->misses[missAt_].index < base_)
            ++missAt_;
    }

    /**
     * After the replay: complete a fresh record with the shared
     * activity and the final hierarchy stats and publish it on the
     * trace (first writer wins), then hand every pipeline both.
     */
    void
    finish(const cpu::TraceBuffer &trace)
    {
        if (recorder_) {
            recorder_->finish(*recording_);
            // A racing recording is identical by determinism, and a
            // record is one stream, so any later replay consumes it
            // whatever its block size.
            trace.annexStoreIfAbsent(
                key_, std::static_pointer_cast<void>(recording_),
                recording_->bytes());
        }
        for (InOrderPipeline *p : pipes_)
            p->adoptSharedStats(*rec_);
    }

  private:
    std::vector<InOrderPipeline *> pipes_;
    std::string key_;
    /** The record the pipelines consume: cached, or recording_. */
    std::shared_ptr<const SharedQuanta> rec_;
    std::unique_ptr<QuantaRecorder> recorder_;
    std::shared_ptr<SharedQuanta> recording_;
    /** Decodes a cached rec_ (absent while recording). */
    std::optional<SharedQuanta::Decoder> decoder_;
    /** The current block's dense entries and latch bases, for every
     * pipeline. */
    std::vector<SharedQuanta::Entry> entries_;
    std::vector<Count> latchBase_;
    /** Record index of the next block's first instruction. */
    std::size_t base_ = 0;
    /** Index into the record's misses of the next block's first. */
    std::size_t missAt_ = 0;
};

} // namespace

bool
memoEligible(const InOrderPipeline &p)
{
    return p.planIsPure() && p.pristine() && !p.observed();
}

// quantaKey() covers only what the design-independent quanta depend
// on, so everything else the *result* depends on is appended: the
// concrete type (custom designs may reuse a name), the design name,
// and the scheduling-side configuration (ALU occupancies, branch
// prediction) that plan()/schedule() consume.
std::string
resultKey(const InOrderPipeline &p)
{
    const PipelineConfig &c = p.config();
    std::string key;
    key.reserve(256);
    json::append(key, "result:", typeid(p).name(), ':', p.name(), ':',
                 p.quantaKey(), ':', c.multCycles, ':', c.divCycles, ':',
                 static_cast<int>(c.predictor), ':', c.phtEntries, ':',
                 c.btbEntries);
    return key;
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
        group_sinks.push_back(std::make_unique<GroupReplaySink>(
            std::move(groups[g]), std::move(group_keys[g]), trace));
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

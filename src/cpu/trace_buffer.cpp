#include "cpu/trace_buffer.h"

#include <atomic>
#include <map>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "mem/main_memory.h"
#include "sigcomp/sig_kernels.h"

namespace sigcomp::cpu
{

/** Keyed type-erased annexes with their reported heap sizes. */
struct TraceBuffer::AnnexStore
{
    /**
     * Guards the annex map only. Acquired after TraceCache::mu_
     * (via TraceCache::memoryBytes()) — annex code must
     * never call back into the cache while holding it.
     */
    Mutex mu;
    std::map<std::string, std::pair<std::shared_ptr<void>, std::size_t>>
        entries SIGCOMP_GUARDED_BY(mu);
    /** TraceView::replay() passes over the owning buffer. */
    std::atomic<std::uint64_t> replays{0};
};

std::shared_ptr<void>
TraceBuffer::annexGet(const std::string &key) const
{
    MutexLock lock(annexes_->mu);
    auto it = annexes_->entries.find(key);
    return it == annexes_->entries.end() ? nullptr : it->second.first;
}

std::shared_ptr<void>
TraceBuffer::annexStoreIfAbsent(const std::string &key,
                                std::shared_ptr<void> value,
                                std::size_t bytes) const
{
    MutexLock lock(annexes_->mu);
    auto it = annexes_->entries
                  .emplace(key, std::make_pair(std::move(value), bytes))
                  .first;
    return it->second.first;
}

std::vector<std::string>
TraceBuffer::annexKeys(const std::string &prefix) const
{
    std::vector<std::string> keys;
    MutexLock lock(annexes_->mu);
    for (const auto &[key, entry] : annexes_->entries) {
        if (key.compare(0, prefix.size(), prefix) == 0)
            keys.push_back(key);
    }
    return keys;
}

std::uint64_t
TraceBuffer::replayCount() const
{
    return annexes_->replays.load();
}

TraceBuffer
TraceBuffer::makeForRebuild()
{
    TraceBuffer buf;
    buf.annexes_ = std::make_shared<AnnexStore>();
    return buf;
}

TraceBuffer
TraceBuffer::capture(const isa::Program &program, DWord max_instrs,
                     bool allow_truncation, const CancelToken *cancel)
{
    TraceBuffer buf;
    buf.annexes_ = std::make_shared<AnnexStore>();
    buf.program_ = program;
    buf.decoded_.reserve(program.text().size());
    for (const isa::Instruction &inst : program.text())
        buf.decoded_.push_back(isa::decode(inst));

    // Local class: shares capture()'s access to the private arrays.
    struct Recorder : TraceSink
    {
        explicit Recorder(TraceBuffer &b) : b(b) {}

        void
        retire(const DynInstr &di) override
        {
            b.decIdx_.push_back(
                static_cast<std::uint32_t>((di.pc - isa::textBase) / 4));
            b.srcRs_.push_back(di.srcRs);
            b.srcRt_.push_back(di.srcRt);
            b.result_v_.push_back(di.result);
            if (di.dec->isLoad || di.dec->isStore) {
                b.memAddr_.push_back(di.memAddr);
                b.memData_.push_back(di.memData);
            }
            const std::size_t i = b.decIdx_.size() - 1;
            if (i % 64 == 0)
                b.taken_.push_back(0);
            if (di.taken)
                b.taken_.back() |= std::uint64_t{1} << (i % 64);
            b.lastNextPc_ = di.nextPc;
        }

        TraceBuffer &b;
    };

    mem::MainMemory memory;
    FunctionalCore core(program, memory);
    Recorder recorder(buf);
    buf.result_ = core.run(&recorder, max_instrs, cancel);

    // A cancelled capture has recorded a prefix, not a trace: throw
    // instead of returning so no caller can cache or replay it.
    if (buf.result_.reason == StopReason::Cancelled)
        throw CancelledError();

    SC_ASSERT(buf.result_.reason != StopReason::AssertFailed,
              "program '", program.name(),
              "' failed self-check during trace capture: got ",
              buf.result_.assertActual, ", expected ",
              buf.result_.assertExpected);
    SC_ASSERT(allow_truncation ||
                  buf.result_.reason != StopReason::InstrLimit,
              "program '", program.name(),
              "' hit the instruction limit (", max_instrs,
              ") during trace capture");

    buf.decIdx_.shrink_to_fit();
    buf.srcRs_.shrink_to_fit();
    buf.srcRt_.shrink_to_fit();
    buf.result_v_.shrink_to_fit();
    buf.taken_.shrink_to_fit();
    buf.memAddr_.shrink_to_fit();
    buf.memData_.shrink_to_fit();
    buf.fillSigSidecars();
    return buf;
}

void
TraceBuffer::fillSigSidecars()
{
    const std::size_t n = decIdx_.size();
    // Classify each value column in one batch pass, then pack the
    // three per-instruction nibbles. Chunked so the scratch stays in
    // L1 no matter how long the trace is.
    sigRegs_.resize(n);
    constexpr std::size_t chunk = 4096;
    sig::ByteMask rs[chunk], rt[chunk], res[chunk];
    for (std::size_t base = 0; base < n; base += chunk) {
        const std::size_t k = std::min(chunk, n - base);
        sig::classifyExt3Block(srcRs_.data() + base, k, rs);
        sig::classifyExt3Block(srcRt_.data() + base, k, rt);
        sig::classifyExt3Block(result_v_.data() + base, k, res);
        sig::packSigTagsBlock(rs, rt, res, k, sigRegs_.data() + base);
    }
    sigMem_.resize(memData_.size());
    sig::classifyExt3Block(memData_.data(), memData_.size(),
                           sigMem_.data());
}

std::size_t
TraceBuffer::memoryBytes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    std::size_t total = bytes(decIdx_) + bytes(srcRs_) + bytes(srcRt_) +
                        bytes(result_v_) + bytes(taken_) +
                        bytes(sigRegs_) + bytes(sigMem_) +
                        bytes(memAddr_) + bytes(memData_) +
                        bytes(decoded_);
    MutexLock lock(annexes_->mu);
    for (const auto &[key, entry] : annexes_->entries)
        total += entry.second;
    return total;
}

bool
TraceView::replay(const std::vector<TraceSink *> &sinks,
                  std::size_t block_size,
                  const CancelToken *cancel) const
{
    SC_ASSERT(block_size > 0, "replay block size must be positive");
    const TraceBuffer &b = *buf_;
    b.annexes_->replays.fetch_add(1);
    const std::size_t n = b.size();
    std::vector<DynInstr> block(std::min(block_size, n));

    SC_ASSERT(b.sigRegs_.size() == n &&
                  b.sigMem_.size() == b.memData_.size(),
              "every replayed trace carries its significance sidecars "
              "(capture and deserialize both fill them)");
    std::size_t mem_cursor = 0;
    for (std::size_t base = 0; base < n;) {
        // Cancellation granularity is the block: a token that fires
        // during block k stops the replay before block k+1.
        if (cancel != nullptr && cancel->stopRequested())
            return false;
        // One span per materialized block batch: the unit the fused
        // replay loop will eventually pipeline (ROADMAP item 3).
        SIGCOMP_SPAN("replay.block");
        const std::size_t k = std::min(block.size(), n - base);
        for (std::size_t j = 0; j < k; ++j) {
            const std::size_t i = base + j;
            const std::uint32_t idx = b.decIdx_[i];
            DynInstr &di = block[j];
            di.pc = isa::textBase + static_cast<Addr>(4 * idx);
            di.dec = &b.decoded_[idx];
            di.srcRs = b.srcRs_[i];
            di.srcRt = b.srcRt_[i];
            di.result = b.result_v_[i];
            di.sigTags = b.sigRegs_[i];
            if (di.dec->isLoad || di.dec->isStore) {
                di.memAddr = b.memAddr_[mem_cursor];
                di.memData = b.memData_[mem_cursor];
                di.sigTags = static_cast<std::uint16_t>(
                    di.sigTags |
                    (static_cast<std::uint16_t>(b.sigMem_[mem_cursor])
                     << 12));
                ++mem_cursor;
            } else {
                di.memAddr = 0;
                di.memData = 0;
            }
            di.taken = (b.taken_[i / 64] >> (i % 64)) & 1;
            di.nextPc =
                (i + 1 < n)
                    ? isa::textBase + static_cast<Addr>(4 * b.decIdx_[i + 1])
                    : b.lastNextPc_;
        }
        const std::span<const DynInstr> span(block.data(), k);
        for (TraceSink *s : sinks)
            s->retireBlock(span);
        base += k;
    }
    return true;
}

} // namespace sigcomp::cpu

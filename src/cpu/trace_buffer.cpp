#include "cpu/trace_buffer.h"

#include <array>
#include <atomic>
#include <map>

#include "common/logging.h"
#include "common/mutex.h"
#include "common/telemetry.h"
#include "common/thread_annotations.h"
#include "mem/main_memory.h"
#include "sigcomp/byte_pattern.h"

namespace sigcomp::cpu
{

namespace
{

/**
 * The architectural register file rebuilt from the load log.
 *
 * Operand values are a pure function of the load log: registers
 * start at reset state (zeros, $sp at stackTop), every retired
 * instruction writes its result to its destination, each result is
 * execute() of its operands (and, for a load, of the bytes it read),
 * and syscalls never write registers. So walking the stream in order,
 * reading srcRs/srcRt before retiring each result, reproduces the
 * functional core's operands exactly (test_trace checks every suite
 * workload against a live run).
 *
 * T is Word for the values themselves or sig::ByteMask for their Ext3
 * tags: a register's tag is the tag of the result last written to it,
 * so replay walks the result tags it classifies beside the values and
 * gets the srcRs/srcRt tags without classifying the operands. Each
 * walk owns its instance.
 */
template <typename T>
class RegisterReplay
{
  public:
    /** Reset state: every register (and "no operand") reads @p zero,
     *  $sp reads @p sp. */
    RegisterReplay(T zero, T sp)
    {
        regs_.fill(zero);
        regs_[isa::reg::sp] = sp;
    }

    T rs(InstrFacts f) const { return regs_[f.rs]; }
    T rt(InstrFacts f) const { return regs_[f.rt]; }

    /** Retire an instruction: its result reaches its destination. */
    void retire(InstrFacts f, T result) { regs_[f.dest] = result; }

  private:
    std::array<T, isa::numRegs + 2> regs_;
};

/**
 * One encoded column's replay cursor: its values in stream order,
 * decoded one codec block at a time into scratch the replay owns, so
 * concurrent replays of one buffer share nothing.
 */
class ColumnCursor
{
  public:
    explicit ColumnCursor(const store::Column32 &col) : reader_(col) {}

    std::uint32_t
    next()
    {
        if (i_ == k_)
            refill();
        return vals_[i_++];
    }

  private:
    [[gnu::noinline]] void
    refill()
    {
        SIGCOMP_SPAN("replay.decode");
        // Capture wrote the stream, or the loader decoded all of it
        // before adopting it, so a failure here is a bug.
        SC_ASSERT(reader_.nextBlock(),
                  "resident trace column does not decode");
        vals_ = reader_.values();
        k_ = reader_.blockSize();
        i_ = 0;
    }

    store::ColumnReader reader_;
    const std::uint32_t *vals_ = nullptr;
    std::size_t i_ = 0;
    std::size_t k_ = 0;
};

/**
 * execute()'s memory in replay: a load returns the next bytes of the
 * trace's load log; stores change nothing replay reads.
 */
struct LoadLog
{
    ColumnCursor data;

    Word load(Addr, unsigned) { return data.next(); }
    void store(Addr, Word, unsigned) {}
};

} // namespace

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

InstrFacts
InstrFacts::of(const isa::DecodedInstr &d)
{
    // A write to $zero is no write: it reads 0 and retires 0.
    return {static_cast<std::uint8_t>(d.readsRs ? d.inst.rs() : noOperand),
            static_cast<std::uint8_t>(d.readsRt ? d.inst.rt() : noOperand),
            static_cast<std::uint8_t>(d.writesDest && d.dest != isa::reg::zero
                                          ? static_cast<unsigned>(d.dest)
                                          : noDest),
            static_cast<std::uint8_t>((d.isLoad ? load : 0) |
                                      (d.isStore ? store : 0)),
            execOpOf(d)};
}

TraceBuffer
TraceBuffer::makeFor(const isa::Program &program)
{
    TraceBuffer buf;
    buf.annexes_ = std::make_shared<AnnexStore>();
    buf.program_ = program;
    buf.decoded_.reserve(program.text().size());
    buf.facts_.reserve(program.text().size());
    for (const isa::Instruction &inst : program.text()) {
        buf.decoded_.push_back(isa::decode(inst));
        buf.facts_.push_back(InstrFacts::of(buf.decoded_.back()));
    }
    return buf;
}

TraceBuffer
TraceBuffer::capture(const isa::Program &program, DWord max_instrs,
                     bool allow_truncation, const CancelToken *cancel)
{
    TraceBuffer buf = makeFor(program);

    // Local class: shares capture()'s access to the private columns.
    // Each value is encoded once, as it retires; what replay derives
    // (every value but the decode index and the loaded bytes) is not
    // recorded at all.
    struct Recorder : TraceSink
    {
        void
        retire(const DynInstr &di) override
        {
            decIdx.push(
                static_cast<std::uint32_t>((di.pc - isa::textBase) / 4));
            if (di.dec->isLoad)
                loadData.push(di.memData);
            lastNextPc = di.nextPc;
        }

        store::ColumnWriter decIdx, loadData;
        Addr lastNextPc = 0;
    };

    mem::MainMemory memory;
    FunctionalCore core(program, memory);
    Recorder recorder;
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

    // Resident columns keep no growth slack.
    const auto finish = [](store::ColumnWriter &w) {
        store::Column32 col = w.finish();
        col.stream.shrink_to_fit();
        return col;
    };
    buf.decIdx_ = finish(recorder.decIdx);
    buf.loadData_ = finish(recorder.loadData);
    buf.lastNextPc_ = recorder.lastNextPc;
    return buf;
}

std::size_t
TraceBuffer::memoryBytes() const
{
    auto bytes = [](const auto &v) {
        return v.capacity() * sizeof(v[0]);
    };
    std::size_t total = bytes(decIdx_.stream) + bytes(loadData_.stream) +
                        bytes(decoded_) + bytes(facts_);
    return total + annexBytes();
}

std::size_t
TraceBuffer::annexBytes() const
{
    std::size_t total = 0;
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

    // Both columns are read in stream order, one codec block at a
    // time into this replay's own scratch: the decode index advances
    // per instruction, the load log per load.
    ColumnCursor dec_idx(b.decIdx_);
    LoadLog loads{ColumnCursor(b.loadData_)};
    // The decode index is read one ahead: instruction i's nextPc is
    // the pc of instruction i + 1.
    std::uint32_t idx = n > 0 ? dec_idx.next() : 0;
    // One register file (and HI/LO) across all blocks: operands are
    // rebuilt in stream order, never stored (each replay owns its
    // own). The second carries their Ext3 tags, so each instruction
    // classifies only the values it produces (result, memData) and
    // reads its operands' tags from the walk.
    RegisterReplay<Word> regs(0, isa::stackTop);
    HiLo hilo;
    RegisterReplay<sig::ByteMask> tags(sig::classifyExt3(0),
                                       sig::classifyExt3(isa::stackTop));
    for (std::size_t base = 0; base < n;) {
        // Cancellation granularity is the block: a token that fires
        // during block k stops the replay before block k+1.
        if (cancel != nullptr && cancel->stopRequested())
            return false;
        // One span per materialized block batch, the unit every
        // sink of the fused replay pass receives.
        SIGCOMP_SPAN("replay.block");
        const std::size_t k = std::min(block.size(), n - base);
        for (std::size_t j = 0; j < k; ++j) {
            const std::size_t i = base + j;
            const InstrFacts f = b.facts_[idx];
            const isa::DecodedInstr &dec = b.decoded_[idx];
            DynInstr &di = block[j];
            di.pc = isa::textBase + static_cast<Addr>(4 * idx);
            di.dec = &dec;
            di.srcRs = regs.rs(f);
            di.srcRt = regs.rt(f);
            const Outcome o = execute(f.op, dec.inst, di.pc, di.srcRs,
                                      di.srcRt, hilo, loads);
            di.result = f.dest == InstrFacts::noDest ? 0 : o.result;
            regs.retire(f, di.result);
            di.memAddr = o.memAddr;
            di.memData = o.memData;
            di.taken = o.taken;
            const sig::ByteMask res = sig::classifyExt3(di.result);
            unsigned packed = tags.rs(f) | (tags.rt(f) << 4) | (res << 8);
            tags.retire(f, res);
            if (f.flags & InstrFacts::memOp)
                packed |= sig::classifyExt3(di.memData) << 12;
            di.sigTags = static_cast<std::uint16_t>(packed);
            if (i + 1 < n) {
                idx = dec_idx.next();
                di.nextPc = isa::textBase + static_cast<Addr>(4 * idx);
            } else {
                di.nextPc = b.lastNextPc_;
            }
        }
        const std::span<const DynInstr> span(block.data(), k);
        for (TraceSink *s : sinks)
            s->retireBlock(span);
        base += k;
    }
    return true;
}

} // namespace sigcomp::cpu

/**
 * @file
 * Functional (architectural) simulator of the MIPS-like ISA. Plays
 * the role SimpleScalar's interpreter played in the paper: it
 * executes programs and produces the dynamic trace that drives the
 * pipeline timing and activity models.
 */

#ifndef SIGCOMP_CPU_FUNCTIONAL_CORE_H_
#define SIGCOMP_CPU_FUNCTIONAL_CORE_H_

#include <array>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "cpu/execute.h"
#include "cpu/trace.h"
#include "isa/program.h"
#include "mem/main_memory.h"

namespace sigcomp::cpu
{

/** Why run() stopped. */
enum class StopReason
{
    Exited,          ///< program executed the Exit syscall
    AssertFailed,    ///< in-program AssertEq syscall failed
    InstrLimit,      ///< maxInstrs reached
    Cancelled,       ///< the run's CancelToken fired
};

/** Result of a functional run. */
struct RunResult
{
    StopReason reason = StopReason::Exited;
    Word exitCode = 0;
    DWord instructions = 0;
    /** AssertEq operands when reason == AssertFailed. */
    Word assertActual = 0;
    Word assertExpected = 0;
};

/**
 * Executes a Program against a MainMemory, optionally reporting every
 * retired instruction to a TraceSink.
 *
 * Values come from execute() (cpu/execute.h), which replay shares:
 * add/addi/sub use wrap-around semantics (no overflow traps);
 * divide-by-zero leaves HI/LO at zero. These simplifications match
 * what -O3 compiled media code exercises.
 */
class FunctionalCore
{
  public:
    /**
     * Bind the core to a program and memory. The program's data
     * segment is copied into @p memory and registers are reset
     * ($sp = stackTop, pc = entry).
     */
    FunctionalCore(const isa::Program &program, mem::MainMemory &memory);

    /**
     * Run until exit/assert/instruction limit/cancellation.
     *
     * @param sink optional per-instruction consumer
     * @param max_instrs safety limit
     * @param cancel optional cooperative stop: polled every few
     *   thousand instructions; when it fires the run returns
     *   StopReason::Cancelled at that boundary (the core can resume,
     *   but trace capture treats it as an aborted capture).
     */
    RunResult run(TraceSink *sink = nullptr,
                  DWord max_instrs = 100'000'000,
                  const CancelToken *cancel = nullptr);

    /** Execute exactly one instruction (single-step for tests). */
    bool step(DynInstr &out);

    Word reg(isa::Reg r) const { return regs_[r]; }
    void setReg(isa::Reg r, Word v);
    Addr pc() const { return pc_; }
    Word hi() const { return hilo_.hi; }
    Word lo() const { return hilo_.lo; }

    /** Integers printed via the PrintInt syscall. */
    const std::vector<SWord> &printedInts() const { return printed_; }
    /** Characters printed via the PutChar syscall. */
    const std::string &output() const { return output_; }

    const isa::Program &program() const { return program_; }
    mem::MainMemory &memory() { return memory_; }

  private:
    /** Handle the Syscall instruction; returns true when stopping. */
    bool doSyscall();

    const isa::Program &program_;
    mem::MainMemory &memory_;

    /** Decoded text segment, indexed by word offset. */
    std::vector<isa::DecodedInstr> decoded_;
    /** execOpOf each decoded_ entry, same indexing. */
    std::vector<ExecOp> ops_;

    std::array<Word, isa::numRegs> regs_{};
    HiLo hilo_;
    Addr pc_;

    std::vector<SWord> printed_;
    std::string output_;

    bool stopped_ = false;
    RunResult pendingResult_;
};

/**
 * Convenience: run @p program to completion on a fresh memory and
 * fatal on assert failures / instruction-limit hits. Used by tests
 * and workload self-checks.
 */
RunResult runToCompletion(const isa::Program &program,
                          TraceSink *sink = nullptr,
                          DWord max_instrs = 100'000'000);

} // namespace sigcomp::cpu

#endif // SIGCOMP_CPU_FUNCTIONAL_CORE_H_

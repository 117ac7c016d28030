#include "cpu/functional_core.h"

#include "common/logging.h"

namespace sigcomp::cpu
{

using isa::Funct;
using isa::Opcode;
using isa::InstrClass;

ExecOp
execOpOf(const isa::DecodedInstr &d)
{
    const isa::Instruction inst = d.inst;
    switch (d.cls) {
      case InstrClass::Nop:
        return d.name == "unknown" ? ExecOp::Unknown : ExecOp::Nop;
      case InstrClass::Syscall:
        return ExecOp::Syscall;
      case InstrClass::Shift:
        switch (inst.funct()) {
          case Funct::Sll: return ExecOp::Sll;
          case Funct::Srl: return ExecOp::Srl;
          case Funct::Sra: return ExecOp::Sra;
          case Funct::Sllv: return ExecOp::Sllv;
          case Funct::Srlv: return ExecOp::Srlv;
          default: return ExecOp::Srav;
        }
      case InstrClass::IntAlu:
        if (d.format == isa::Format::R) {
            switch (inst.funct()) {
              case Funct::Add:
              case Funct::Addu: return ExecOp::Add;
              case Funct::Sub:
              case Funct::Subu: return ExecOp::Sub;
              case Funct::And: return ExecOp::And;
              case Funct::Or: return ExecOp::Or;
              case Funct::Xor: return ExecOp::Xor;
              case Funct::Nor: return ExecOp::Nor;
              case Funct::Slt: return ExecOp::Slt;
              case Funct::Sltu: return ExecOp::Sltu;
              case Funct::Mfhi: return ExecOp::Mfhi;
              case Funct::Mflo: return ExecOp::Mflo;
              case Funct::Mthi: return ExecOp::Mthi;
              case Funct::Mtlo: return ExecOp::Mtlo;
              default: SC_PANIC("unhandled R-format IntAlu funct");
            }
        }
        switch (inst.opcode()) {
          case Opcode::Addi:
          case Opcode::Addiu: return ExecOp::AddImm;
          case Opcode::Slti: return ExecOp::SltImm;
          case Opcode::Sltiu: return ExecOp::SltuImm;
          case Opcode::Andi: return ExecOp::AndImm;
          case Opcode::Ori: return ExecOp::OrImm;
          case Opcode::Xori: return ExecOp::XorImm;
          case Opcode::Lui: return ExecOp::Lui;
          default: SC_PANIC("unhandled I-format IntAlu opcode");
        }
      case InstrClass::Mult:
        return inst.funct() == Funct::Mult ? ExecOp::Mult : ExecOp::Multu;
      case InstrClass::Div:
        return inst.funct() == Funct::Div ? ExecOp::Div : ExecOp::Divu;
      case InstrClass::Load:
        switch (inst.opcode()) {
          case Opcode::Lb: return ExecOp::Lb;
          case Opcode::Lbu: return ExecOp::Lbu;
          case Opcode::Lh: return ExecOp::Lh;
          case Opcode::Lhu: return ExecOp::Lhu;
          default: return ExecOp::Lw;
        }
      case InstrClass::Store:
        switch (inst.opcode()) {
          case Opcode::Sb: return ExecOp::Sb;
          case Opcode::Sh: return ExecOp::Sh;
          default: return ExecOp::Sw;
        }
      case InstrClass::Branch:
        switch (inst.opcode()) {
          case Opcode::Beq: return ExecOp::Beq;
          case Opcode::Bne: return ExecOp::Bne;
          case Opcode::Blez: return ExecOp::Blez;
          case Opcode::Bgtz: return ExecOp::Bgtz;
          case Opcode::RegImm:
            return static_cast<isa::RegImmRt>(inst.rt()) ==
                           isa::RegImmRt::Bgez
                       ? ExecOp::Bgez
                       : ExecOp::Bltz;
          default: SC_PANIC("unhandled branch opcode");
        }
      case InstrClass::Jump:
        return inst.opcode() == Opcode::Jal ? ExecOp::Jal : ExecOp::J;
      case InstrClass::JumpReg:
        return inst.funct() == Funct::Jalr ? ExecOp::Jalr : ExecOp::Jr;
    }
    SC_PANIC("unhandled instruction class");
}

FunctionalCore::FunctionalCore(const isa::Program &program,
                               mem::MainMemory &memory)
    : program_(program), memory_(memory), pc_(program.entry())
{
    decoded_.reserve(program.text().size());
    ops_.reserve(program.text().size());
    for (const isa::Instruction &inst : program.text()) {
        decoded_.push_back(isa::decode(inst));
        ops_.push_back(execOpOf(decoded_.back()));
    }

    const isa::DataSegment &data = program.data();
    if (!data.bytes.empty())
        memory_.writeBlock(data.base, data.bytes.data(), data.bytes.size());

    regs_.fill(0);
    regs_[isa::reg::sp] = isa::stackTop;
}

void
FunctionalCore::setReg(isa::Reg r, Word v)
{
    if (r != isa::reg::zero)
        regs_[r] = v;
}

bool
FunctionalCore::doSyscall()
{
    const auto code = static_cast<isa::SyscallCode>(regs_[isa::reg::v0]);
    const Word a0 = regs_[isa::reg::a0];
    const Word a1 = regs_[isa::reg::a1];

    switch (code) {
      case isa::SyscallCode::PrintInt:
        printed_.push_back(static_cast<SWord>(a0));
        return false;
      case isa::SyscallCode::PutChar:
        output_.push_back(static_cast<char>(a0));
        return false;
      case isa::SyscallCode::Exit:
        pendingResult_.reason = StopReason::Exited;
        pendingResult_.exitCode = a0;
        return true;
      case isa::SyscallCode::AssertEq:
        if (a0 != a1) {
            pendingResult_.reason = StopReason::AssertFailed;
            pendingResult_.assertActual = a0;
            pendingResult_.assertExpected = a1;
            return true;
        }
        return false;
    }
    SC_FATAL("unknown syscall code ", regs_[isa::reg::v0], " at pc=0x",
             std::hex, pc_);
}

bool
FunctionalCore::step(DynInstr &out)
{
    SC_ASSERT(!stopped_, "step() after stop");
    SC_ASSERT(pc_ >= isa::textBase && pc_ < program_.textEnd(),
              "pc outside text: 0x", std::hex, pc_);

    const std::size_t index = (pc_ - isa::textBase) / wordBytes;
    const isa::DecodedInstr &dec = decoded_[index];
    const isa::Instruction inst = dec.inst;
    const ExecOp op = ops_[index];
    if (op == ExecOp::Unknown)
        SC_FATAL("executed unknown instruction 0x", std::hex, inst.raw(),
                 " at pc=0x", pc_);

    out = DynInstr();
    out.pc = pc_;
    out.dec = &dec;

    const Word rs_v = regs_[inst.rs()];
    const Word rt_v = regs_[inst.rt()];
    if (dec.readsRs)
        out.srcRs = rs_v;
    if (dec.readsRt)
        out.srcRt = rt_v;

    /** execute()'s memory: the live image, at the access width. */
    struct LiveMemory
    {
        mem::MainMemory &image;

        Word
        load(Addr ea, unsigned bytes) const
        {
            return bytes == 1   ? image.readByte(ea)
                   : bytes == 2 ? image.readHalf(ea)
                                : image.readWord(ea);
        }

        void
        store(Addr ea, Word datum, unsigned bytes) const
        {
            if (bytes == 1)
                image.writeByte(ea, static_cast<Byte>(datum));
            else if (bytes == 2)
                image.writeHalf(ea, static_cast<Half>(datum));
            else
                image.writeWord(ea, datum);
        }
    } memory{memory_};
    const Outcome o = execute(op, inst, pc_, rs_v, rt_v, hilo_, memory);
    const bool stop = op == ExecOp::Syscall && doSyscall();

    out.memAddr = o.memAddr;
    out.memData = o.memData;
    out.taken = o.taken;
    if (dec.writesDest) {
        setReg(dec.dest, o.result);
        out.result = (dec.dest == isa::reg::zero) ? 0 : o.result;
    }

    out.nextPc = o.nextPc;
    pc_ = o.nextPc;
    if (stop)
        stopped_ = true;
    return !stop;
}

RunResult
FunctionalCore::run(TraceSink *sink, DWord max_instrs,
                    const CancelToken *cancel)
{
    // Poll granularity: cheap enough to vanish in the interpreter
    // loop, fine enough that a cancelled capture stops in ~microseconds.
    constexpr DWord cancel_stride = 4096;
    DWord count = 0;
    DynInstr di;
    while (count < max_instrs) {
        if (cancel != nullptr && count % cancel_stride == 0 &&
            cancel->stopRequested()) {
            pendingResult_.reason = StopReason::Cancelled;
            pendingResult_.instructions = count;
            return pendingResult_;
        }
        const bool more = step(di);
        ++count;
        if (sink)
            sink->retire(di);
        if (!more) {
            pendingResult_.instructions = count;
            return pendingResult_;
        }
    }
    pendingResult_.reason = StopReason::InstrLimit;
    pendingResult_.instructions = count;
    stopped_ = true;
    return pendingResult_;
}

RunResult
runToCompletion(const isa::Program &program, TraceSink *sink,
                DWord max_instrs)
{
    mem::MainMemory memory;
    FunctionalCore core(program, memory);
    const RunResult r = core.run(sink, max_instrs);
    if (r.reason == StopReason::AssertFailed) {
        SC_FATAL("program '", program.name(), "' assert failed: got ",
                 r.assertActual, ", expected ", r.assertExpected);
    }
    if (r.reason == StopReason::InstrLimit) {
        SC_FATAL("program '", program.name(),
                 "' hit the instruction limit (", max_instrs, ")");
    }
    return r;
}

} // namespace sigcomp::cpu

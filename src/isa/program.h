/**
 * @file
 * Executable program image: text, initialised data, and symbols.
 */

#ifndef SIGCOMP_ISA_PROGRAM_H_
#define SIGCOMP_ISA_PROGRAM_H_

#include <map>
#include <string>
#include <vector>

#include "common/types.h"
#include "isa/instruction.h"

namespace sigcomp::isa
{

/** Default base of the text segment (SPIM-style layout). */
constexpr Addr textBase = 0x00400000;

/**
 * Default base of the data segment. Matches the paper's experimental
 * framework ("the data segment base ... is set at address 10 00 00 00"),
 * which is what makes upper-memory addresses an interesting
 * significance pattern (s--s / "sees").
 */
constexpr Addr dataBase = 0x10000000;

/** Initial stack pointer (grows down). */
constexpr Addr stackTop = 0x7ffffff0;

/** A contiguous block of initialised bytes. */
struct DataSegment
{
    Addr base = 0;
    std::vector<Byte> bytes;
};

/**
 * A fully linked program: instructions at textBase, one initialised
 * data segment, entry point, and a symbol table for tests/tools.
 */
class Program
{
  public:
    Program() = default;

    Program(std::string name, std::vector<Instruction> text,
            DataSegment data, Addr entry,
            std::map<std::string, Addr> symbols)
        : name_(std::move(name)), text_(std::move(text)),
          data_(std::move(data)), entry_(entry),
          symbols_(std::move(symbols))
    {}

    const std::string &name() const { return name_; }
    const std::vector<Instruction> &text() const { return text_; }
    const DataSegment &data() const { return data_; }
    Addr entry() const { return entry_; }

    /** Address of the first instruction. */
    Addr textStart() const { return textBase; }

    /** One-past-the-end address of the text segment. */
    Addr
    textEnd() const
    {
        return textBase + static_cast<Addr>(text_.size() * wordBytes);
    }

    /** Look up a label; fatal if missing. */
    Addr symbol(const std::string &label) const;

    /** Instruction at @p addr; fatal when outside the text segment. */
    Instruction fetch(Addr addr) const;

  private:
    std::string name_;
    std::vector<Instruction> text_;
    DataSegment data_;
    Addr entry_ = textBase;
    std::map<std::string, Addr> symbols_;
};

} // namespace sigcomp::isa

#endif // SIGCOMP_ISA_PROGRAM_H_

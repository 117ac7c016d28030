#include "isa/program.h"

#include "common/logging.h"

namespace sigcomp::isa
{

Addr
Program::symbol(const std::string &label) const
{
    auto it = symbols_.find(label);
    if (it == symbols_.end())
        SC_FATAL("unknown symbol '", label, "' in program '", name_, "'");
    return it->second;
}

Instruction
Program::fetch(Addr addr) const
{
    SC_ASSERT(addr % wordBytes == 0, "unaligned instruction fetch");
    SC_ASSERT(addr >= textBase && addr < textEnd(),
              "fetch outside text segment: 0x", std::hex, addr);
    return text_[(addr - textBase) / wordBytes];
}

} // namespace sigcomp::isa

/**
 * @file
 * Opcode class attribute table.
 */

#include "trace/isa.hh"

#include <array>

#include "support/logging.hh"

namespace rhmd::trace
{

namespace
{

constexpr std::array<std::string_view, kNumRegs> regTable{
    "r0", "r1", "r2",  "r3",  "r4", "r5", "r6", "r7",
    "r8", "r9", "r10", "r11", "t0", "t1", "sp",
};

} // namespace

std::string_view
regName(RegId reg)
{
    panic_if(reg >= kNumRegs, "bad register id ", unsigned{reg});
    return regTable[reg];
}

bool
isScratchReg(RegId reg)
{
    return reg == kRegScratch0 || reg == kRegScratch1;
}

void
detail::badOpClass(std::size_t index)
{
    rhmd_panic("bad OpClass index ", index);
}

std::string_view
opName(OpClass op)
{
    return opInfo(op).name;
}

bool
isControlFlow(OpClass op)
{
    const OpInfo &info = opInfo(op);
    return info.isCondBranch || info.isUncondCtrl;
}

bool
accessesMemory(OpClass op)
{
    const OpInfo &info = opInfo(op);
    return info.isLoad || info.isStore;
}

OpClass
opFromIndex(std::size_t index)
{
    panic_if(index >= kNumOpClasses, "bad OpClass index ", index);
    return static_cast<OpClass>(index);
}

} // namespace rhmd::trace

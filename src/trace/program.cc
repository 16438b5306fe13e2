/**
 * @file
 * Program structural helpers and invariant checks.
 */

#include "trace/program.hh"

#include <bit>

#include "support/logging.hh"

namespace rhmd::trace
{

std::uint64_t
Program::textBytes() const
{
    std::uint64_t bytes = 0;
    for (const Function &fn : functions) {
        for (const BasicBlock &block : fn.blocks)
            bytes += block.byteSize();
    }
    return bytes;
}

void
Program::layoutCode(std::uint64_t text_base)
{
    std::uint64_t pc = text_base;
    for (Function &fn : functions) {
        for (BasicBlock &block : fn.blocks) {
            block.address = pc;
            pc += block.byteSize();
        }
        // Pad between functions so icache behaviour resembles real
        // linkers' function alignment.
        pc = (pc + 15) & ~std::uint64_t{15};
    }
}

void
Program::validate() const
{
    panic_if(functions.empty(), "program '", name, "' has no functions");
    panic_if(regions.empty(), "program '", name, "' has no regions");
    for (const MemRegion &region : regions)
        panic_if(region.size == 0, "program '", name, "' empty region");

    for (std::size_t f = 0; f < functions.size(); ++f) {
        const Function &fn = functions[f];
        panic_if(fn.blocks.empty(),
                 "program '", name, "' function ", f, " has no blocks");
        const auto n_blocks = static_cast<std::uint32_t>(fn.blocks.size());
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            const Terminator &term = fn.blocks[b].term;
            switch (term.kind) {
              case TermKind::CondBranch:
                panic_if(term.takenTarget >= n_blocks ||
                         term.fallTarget >= n_blocks,
                         "branch target out of range in '", name, "'");
                panic_if(term.takenProb < 0.0 || term.takenProb > 1.0,
                         "bad taken probability in '", name, "'");
                break;
              case TermKind::Jump:
                panic_if(term.takenTarget >= n_blocks,
                         "jump target out of range in '", name, "'");
                break;
              case TermKind::Call:
                panic_if(term.callee >= functions.size(),
                         "callee out of range in '", name, "'");
                panic_if(term.fallTarget >= n_blocks,
                         "call continuation out of range in '", name, "'");
                break;
              case TermKind::Ret:
              case TermKind::Exit:
                break;
            }
            panic_if(term.condSrc1 >= kNumRegs || term.condSrc2 >= kNumRegs,
                     "terminator register out of range in '", name, "'");
            for (const StaticInst &inst : fn.blocks[b].body) {
                panic_if(isControlFlow(inst.op),
                         "control-flow op in block body of '", name, "'");
                panic_if(inst.dst >= kNumRegs || inst.src1 >= kNumRegs ||
                         inst.src2 >= kNumRegs,
                         "register operand out of range in '", name, "'");
                if (!accessesMemory(inst.op))
                    continue;
                // The executor aligns and the PMU detects misalignment
                // with a size - 1 mask.
                panic_if(!std::has_single_bit(inst.mem.accessSize),
                         "access size not a power of two in '", name, "'");
                panic_if(inst.mem.pattern != AddrPattern::StackSlot &&
                         inst.mem.region >= regions.size(),
                         "mem region out of range in '", name, "'");
            }
        }
    }
}

} // namespace rhmd::trace

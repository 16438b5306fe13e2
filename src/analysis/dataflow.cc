/**
 * @file
 * Dataflow analyses implementation.
 *
 * The liveness fixpoint assumes a structurally valid function (branch
 * targets in range) — run the CFG verifier first on untrusted input;
 * out-of-range targets here are a caller bug and panic.
 */

#include "analysis/dataflow.hh"

#include "support/logging.hh"

namespace rhmd::analysis
{

using trace::OpClass;
using trace::OpInfo;
using trace::RegId;
using trace::TermKind;

RegSet
regBit(RegId reg)
{
    panic_if(reg >= trace::kNumRegs, "bad register id ", unsigned{reg});
    return static_cast<RegSet>(1U << reg);
}

bool
contains(RegSet set, RegId reg)
{
    return (set & regBit(reg)) != 0;
}

std::string
regSetName(RegSet set)
{
    std::string out = "{";
    bool first = true;
    for (std::size_t r = 0; r < trace::kNumRegs; ++r) {
        if (!contains(set, static_cast<RegId>(r)))
            continue;
        if (!first)
            out += ", ";
        out += trace::regName(static_cast<RegId>(r));
        first = false;
    }
    out += "}";
    return out;
}

RegSet
instUses(const trace::StaticInst &inst)
{
    const OpInfo &info = trace::opInfo(inst.op);
    RegSet set = 0;
    if (info.numSrc >= 1)
        set |= regBit(inst.src1);
    if (info.numSrc >= 2)
        set |= regBit(inst.src2);
    const bool stack_addressed = trace::accessesMemory(inst.op) &&
        inst.mem.pattern == trace::AddrPattern::StackSlot;
    if (stack_addressed || inst.op == OpClass::Push ||
        inst.op == OpClass::Pop) {
        set |= regBit(trace::kRegSp);
    }
    return set;
}

RegSet
instDefs(const trace::StaticInst &inst)
{
    const OpInfo &info = trace::opInfo(inst.op);
    RegSet set = 0;
    if (info.hasDst)
        set |= regBit(inst.dst);
    if (inst.op == OpClass::Push || inst.op == OpClass::Pop)
        set |= regBit(trace::kRegSp);
    return set;
}

RegSet
termUses(const trace::Terminator &term)
{
    switch (term.kind) {
      case TermKind::CondBranch:
        return regBit(term.condSrc1) | regBit(term.condSrc2);
      case TermKind::Jump:
        return 0;
      case TermKind::Call:
        // The callee may read the ABI argument registers; sp carries
        // the return address push.
        return regBit(trace::kRegArg0) | regBit(trace::kRegArg1) |
               regBit(trace::kRegArg2) | regBit(trace::kRegSp);
      case TermKind::Ret:
        // The caller observes the return-value register.
        return regBit(trace::kRegRet) | regBit(trace::kRegSp);
      case TermKind::Exit:
        // The exit status is observable program output.
        return regBit(trace::kRegRet);
    }
    rhmd_panic("bad terminator kind");
}

RegSet
termDefs(const trace::Terminator &term)
{
    switch (term.kind) {
      case TermKind::Call:
        // The callee returns a value and may clobber the volatile
        // scratch registers; sp is restored on return.
        return regBit(trace::kRegRet) | regBit(trace::kRegScratch0) |
               regBit(trace::kRegScratch1) | regBit(trace::kRegSp);
      case TermKind::Ret:
        return regBit(trace::kRegSp);
      case TermKind::CondBranch:
      case TermKind::Jump:
      case TermKind::Exit:
        return 0;
    }
    rhmd_panic("bad terminator kind");
}

std::vector<std::uint32_t>
successorBlocks(const trace::Terminator &term)
{
    switch (term.kind) {
      case TermKind::CondBranch:
        if (term.takenTarget == term.fallTarget)
            return {term.takenTarget};
        return {term.takenTarget, term.fallTarget};
      case TermKind::Jump:
        return {term.takenTarget};
      case TermKind::Call:
        // Intra-function control resumes at the continuation; the
        // callee's effect is summarized by termUses/termDefs.
        return {term.fallTarget};
      case TermKind::Ret:
      case TermKind::Exit:
        return {};
    }
    rhmd_panic("bad terminator kind");
}

namespace
{

/** Observable uses of one body instruction: none when injected. */
RegSet
observedUses(const trace::StaticInst &inst)
{
    return inst.injected ? 0 : instUses(inst);
}

} // namespace

Liveness
Liveness::compute(const trace::Function &fn)
{
    Liveness out;
    out.fn_ = &fn;
    const std::size_t n = fn.blocks.size();
    out.liveIn_.assign(n, 0);
    out.liveOut_.assign(n, 0);

    // Block summaries: upward-exposed uses and defined registers,
    // scanned backward starting from the terminator.
    std::vector<RegSet> use(n, 0);
    std::vector<RegSet> def(n, 0);
    for (std::size_t b = 0; b < n; ++b) {
        const trace::BasicBlock &block = fn.blocks[b];
        RegSet u = termUses(block.term);
        RegSet d = termDefs(block.term);
        for (std::size_t i = block.body.size(); i-- > 0;) {
            const trace::StaticInst &inst = block.body[i];
            const RegSet id = instDefs(inst);
            u = observedUses(inst) | (u & ~id);
            d |= id;
        }
        use[b] = u;
        def[b] = d;
    }

    // Round-robin backward fixpoint; reverse block order converges in
    // a couple of rounds on reducible CFGs.
    bool changed = true;
    while (changed) {
        changed = false;
        ++out.iterations_;
        for (std::size_t b = n; b-- > 0;) {
            RegSet live_out = 0;
            for (const std::uint32_t succ :
                 successorBlocks(fn.blocks[b].term)) {
                panic_if(succ >= n, "successor out of range");
                live_out |= out.liveIn_[succ];
            }
            const RegSet live_in = use[b] | (live_out & ~def[b]);
            if (live_out != out.liveOut_[b] ||
                live_in != out.liveIn_[b]) {
                out.liveOut_[b] = live_out;
                out.liveIn_[b] = live_in;
                changed = true;
            }
        }
    }
    return out;
}

RegSet
Liveness::liveIn(std::size_t block) const
{
    panic_if(block >= liveIn_.size(), "block out of range");
    return liveIn_[block];
}

RegSet
Liveness::liveOut(std::size_t block) const
{
    panic_if(block >= liveOut_.size(), "block out of range");
    return liveOut_[block];
}

RegSet
Liveness::liveBeforeTerm(std::size_t block) const
{
    panic_if(block >= liveOut_.size(), "block out of range");
    const trace::Terminator &term = fn_->blocks[block].term;
    return termUses(term) | (liveOut_[block] & ~termDefs(term));
}

std::vector<RegSet>
Liveness::livePoints(std::size_t block) const
{
    panic_if(block >= liveOut_.size(), "block out of range");
    const trace::BasicBlock &blk = fn_->blocks[block];
    std::vector<RegSet> points(blk.body.size() + 1);
    points[blk.body.size()] = liveBeforeTerm(block);
    for (std::size_t i = blk.body.size(); i-- > 0;) {
        const trace::StaticInst &inst = blk.body[i];
        points[i] = observedUses(inst) |
                    (points[i + 1] & ~instDefs(inst));
    }
    return points;
}

} // namespace rhmd::analysis

/**
 * @file
 * Semantic-preservation checker implementation.
 */

#include "analysis/preservation.hh"

#include "support/logging.hh"

namespace rhmd::analysis
{

using trace::OpClass;

namespace
{

constexpr std::string_view kPass = "preservation";

/**
 * Memory regions the program's *original* (non-injected) code reads
 * through region-addressed patterns. Frame accesses (StackSlot) are
 * excluded: the stride-walked red zone of region 0 is disjoint from
 * frame slots by the model's addressing convention, so only explicit
 * region reads make a region live for stores.
 */
std::vector<bool>
regionsReadByOriginal(const trace::Program &prog)
{
    std::vector<bool> read(prog.regions.size(), false);
    for (const trace::Function &fn : prog.functions) {
        for (const trace::BasicBlock &block : fn.blocks) {
            for (const trace::StaticInst &inst : block.body) {
                if (inst.injected || !trace::opInfo(inst.op).isLoad)
                    continue;
                if (inst.mem.pattern == trace::AddrPattern::StackSlot)
                    continue;
                if (inst.mem.region < read.size())
                    read[inst.mem.region] = true;
            }
        }
    }
    return read;
}

/**
 * Why an injected store would be observable, or "" when it targets
 * scratch memory. @p regions_read comes from regionsReadByOriginal().
 */
std::string
storeClobberReason(const trace::StaticInst &inst,
                   const std::vector<bool> &regions_read)
{
    if (!trace::opInfo(inst.op).isStore)
        return {};
    const trace::MemRef &mem = inst.mem;
    if (mem.pattern == trace::AddrPattern::StackSlot)
        return "stores into a live stack frame slot";
    if (mem.region >= regions_read.size())
        return "stores into memory region " + std::to_string(mem.region) +
               " which does not exist";
    if (mem.region == 0) {
        if (mem.pattern != trace::AddrPattern::Stride)
            return "stores into the stack region outside the "
                   "stride-walked red zone";
        if (regions_read[0])
            return "stores into the stack region while original code "
                   "reads it through region addressing";
        return {};
    }
    if (regions_read[mem.region])
        return "stores into region " + std::to_string(mem.region) +
               " which original code reads";
    return {};
}

/**
 * Why one injected instruction is observable at a point whose
 * live-after set is @p live_after, or "" when it is provably dead.
 */
std::string
instClobberReason(const trace::StaticInst &inst, RegSet live_after,
                  const std::vector<bool> &regions_read)
{
    if (trace::isControlFlow(inst.op))
        return std::string("injected '") +
               std::string(trace::opName(inst.op)) +
               "' escapes the fall-through path";
    if (inst.op == OpClass::Push || inst.op == OpClass::Pop)
        return std::string("injected '") +
               std::string(trace::opName(inst.op)) +
               "' unbalances the stack";
    const RegSet clobbered = instDefs(inst) & live_after;
    if (clobbered != 0)
        return "writes live register(s) " + regSetName(clobbered);
    return storeClobberReason(inst, regions_read);
}

} // namespace

bool
checkPreservation(const trace::Program &prog, Report &report)
{
    const std::size_t errors_before = report.errorCount();
    const std::vector<bool> regions_read = regionsReadByOriginal(prog);

    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        const trace::Function &fn = prog.functions[f];
        bool fn_has_injection = false;
        for (const trace::BasicBlock &block : fn.blocks) {
            for (const trace::StaticInst &inst : block.body)
                fn_has_injection |= inst.injected;
        }
        if (!fn_has_injection)
            continue;

        const Liveness live = Liveness::compute(fn);
        for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
            const trace::BasicBlock &block = fn.blocks[b];
            std::vector<RegSet> points;  // computed lazily per block
            for (std::size_t i = 0; i < block.body.size(); ++i) {
                if (!block.body[i].injected)
                    continue;
                if (points.empty())
                    points = live.livePoints(b);
                const std::string reason = instClobberReason(
                    block.body[i], points[i + 1], regions_read);
                if (!reason.empty()) {
                    report.error(kPass, "clobbering-injection", f, b, i,
                                 "injected '" +
                                     std::string(trace::opName(
                                         block.body[i].op)) +
                                     "' " + reason);
                }
            }
        }
    }
    return report.errorCount() == errors_before;
}

InjectionGate::InjectionGate(const trace::Program &original)
    : prog_(&original), regionsRead_(regionsReadByOriginal(original))
{
    liveness_.reserve(original.functions.size());
    for (const trace::Function &fn : original.functions)
        liveness_.push_back(Liveness::compute(fn));
}

std::string
InjectionGate::rejectReason(
    std::size_t fn, std::size_t block,
    const std::vector<trace::StaticInst> &payload) const
{
    panic_if(fn >= liveness_.size(), "function out of range");
    // The rewriter appends payloads to the end of the body, so every
    // payload slot sees the block's pre-terminator live set (payload
    // instructions' own reads are not observations).
    const RegSet live = liveness_[fn].liveBeforeTerm(block);
    for (const trace::StaticInst &inst : payload) {
        const std::string reason =
            instClobberReason(inst, live, regionsRead_);
        if (!reason.empty())
            return "payload '" + std::string(trace::opName(inst.op)) +
                   "' " + reason;
    }
    return {};
}

bool
InjectionGate::admits(std::size_t fn, std::size_t block,
                      const std::vector<trace::StaticInst> &payload) const
{
    return rejectReason(fn, block, payload).empty();
}

trace::SiteFilter
InjectionGate::filter()
{
    return [this](std::size_t fn, std::size_t block,
                  const std::vector<trace::StaticInst> &payload) {
        const bool ok = admits(fn, block, payload);
        if (ok)
            ++admitted_;
        else
            ++rejected_;
        return ok;
    };
}

} // namespace rhmd::analysis

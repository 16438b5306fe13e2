/**
 * @file
 * CFG verification implementation.
 */

#include "analysis/cfg.hh"

#include <bit>
#include <string>

#include "analysis/dataflow.hh"
#include "support/logging.hh"

namespace rhmd::analysis
{

using trace::TermKind;

namespace
{

constexpr std::string_view kPass = "cfg";

} // namespace

CfgInfo
buildCfg(const trace::Function &fn)
{
    CfgInfo info;
    const std::size_t n = fn.blocks.size();
    info.succs.resize(n);
    info.preds.resize(n);
    info.reachable.assign(n, false);
    for (std::size_t b = 0; b < n; ++b) {
        info.succs[b] = successorBlocks(fn.blocks[b].term);
        for (const std::uint32_t succ : info.succs[b]) {
            panic_if(succ >= n, "successor out of range");
            info.preds[succ].push_back(static_cast<std::uint32_t>(b));
        }
    }
    // Depth-first reachability from the entry block.
    std::vector<std::uint32_t> stack{0};
    if (n > 0)
        info.reachable[0] = true;
    while (!stack.empty()) {
        const std::uint32_t b = stack.back();
        stack.pop_back();
        for (const std::uint32_t succ : info.succs[b]) {
            if (!info.reachable[succ]) {
                info.reachable[succ] = true;
                stack.push_back(succ);
            }
        }
    }
    return info;
}

namespace
{

/**
 * Range checks for one function. Returns false when any index is
 * unresolvable, in which case the graph-level checks are skipped for
 * the function (successor walks would be out of bounds).
 */
bool
checkFunctionRanges(const trace::Program &prog, std::size_t f,
                    Report &report)
{
    const trace::Function &fn = prog.functions[f];
    const auto n_blocks = static_cast<std::uint32_t>(fn.blocks.size());
    bool resolvable = true;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        const trace::Terminator &term = fn.blocks[b].term;
        switch (term.kind) {
          case TermKind::CondBranch:
            if (term.takenTarget >= n_blocks ||
                term.fallTarget >= n_blocks) {
                report.error(kPass, "branch-target-range", f, b,
                             kNoIndex,
                             "conditional branch targets block " +
                                 std::to_string(term.takenTarget >=
                                                        n_blocks
                                                    ? term.takenTarget
                                                    : term.fallTarget) +
                                 " of a " + std::to_string(n_blocks) +
                                 "-block function");
                resolvable = false;
            }
            if (term.takenProb < 0.0 || term.takenProb > 1.0) {
                report.error(kPass, "taken-prob-range", f, b, kNoIndex,
                             "taken probability " +
                                 std::to_string(term.takenProb) +
                                 " outside [0, 1]");
            }
            break;
          case TermKind::Jump:
            if (term.takenTarget >= n_blocks) {
                report.error(kPass, "jump-target-range", f, b, kNoIndex,
                             "jump targets block " +
                                 std::to_string(term.takenTarget) +
                                 " of a " + std::to_string(n_blocks) +
                                 "-block function");
                resolvable = false;
            }
            break;
          case TermKind::Call:
            if (term.callee >= prog.functions.size()) {
                report.error(kPass, "callee-range", f, b, kNoIndex,
                             "call targets function " +
                                 std::to_string(term.callee) + " of " +
                                 std::to_string(
                                     prog.functions.size()));
            }
            if (term.fallTarget >= n_blocks) {
                report.error(kPass, "call-continuation-range", f, b,
                             kNoIndex,
                             "call continuation targets block " +
                                 std::to_string(term.fallTarget) +
                                 " of a " + std::to_string(n_blocks) +
                                 "-block function");
                resolvable = false;
            }
            break;
          case TermKind::Ret:
          case TermKind::Exit:
            break;
        }
        if (term.condSrc1 >= trace::kNumRegs ||
            term.condSrc2 >= trace::kNumRegs) {
            report.error(kPass, "terminator-register-range", f, b,
                         kNoIndex, "condition register id out of range");
        }

        const trace::BasicBlock &block = fn.blocks[b];
        for (std::size_t i = 0; i < block.body.size(); ++i) {
            const trace::StaticInst &inst = block.body[i];
            if (trace::isControlFlow(inst.op)) {
                report.error(kPass, "control-flow-in-body", f, b, i,
                             std::string("'") +
                                 std::string(trace::opName(inst.op)) +
                                 "' inside a block body would redirect "
                                 "execution");
            }
            if (inst.dst >= trace::kNumRegs ||
                inst.src1 >= trace::kNumRegs ||
                inst.src2 >= trace::kNumRegs) {
                report.error(kPass, "register-range", f, b, i,
                             "register operand id out of range");
            }
            if (!trace::accessesMemory(inst.op))
                continue;
            if (!std::has_single_bit(inst.mem.accessSize)) {
                report.error(kPass, "access-size", f, b, i,
                             "memory access size " +
                                 std::to_string(inst.mem.accessSize) +
                                 " is not a power of two");
            }
            if (inst.mem.pattern != trace::AddrPattern::StackSlot &&
                inst.mem.region >= prog.regions.size()) {
                report.error(kPass, "mem-region-range", f, b, i,
                             "memory region " +
                                 std::to_string(inst.mem.region) +
                                 " of " +
                                 std::to_string(prog.regions.size()));
            }
        }
    }
    return resolvable;
}

/** Graph-level checks; requires resolvable targets. */
void
checkFunctionGraph(const trace::Function &fn, std::size_t f,
                   bool is_entry, const CfgOptions &options,
                   Report &report)
{
    const CfgInfo info = buildCfg(fn);

    bool has_exit_term = false;
    bool reachable_exit = false;
    for (std::size_t b = 0; b < fn.blocks.size(); ++b) {
        const trace::Terminator &term = fn.blocks[b].term;
        const bool exits =
            term.kind == TermKind::Ret || term.kind == TermKind::Exit;
        has_exit_term |= exits;
        reachable_exit |= exits && info.reachable[b];

        if (term.kind == TermKind::Exit && !is_entry) {
            report.warning(kPass, "exit-outside-entry", f, b, kNoIndex,
                           "program exit in a non-entry function");
        }
        if (term.kind == TermKind::CondBranch &&
            term.takenProb == 1.0 &&
            term.fallTarget != term.takenTarget) {
            report.warning(kPass, "dead-fallthrough", f, b, kNoIndex,
                           "always-taken branch makes the fall-through "
                           "edge to block " +
                               std::to_string(term.fallTarget) +
                               " unreachable");
        }
        if (options.flagUnreachableBlocks && !info.reachable[b]) {
            report.warning(kPass, "unreachable-block", f, b, kNoIndex,
                           "block is unreachable from the function "
                           "entry");
        }
    }
    if (!has_exit_term) {
        report.error(kPass, "no-exit", f, kNoIndex, kNoIndex,
                     "function has no return or exit terminator");
    } else if (!reachable_exit) {
        report.warning(kPass, "exit-unreachable", f, kNoIndex, kNoIndex,
                       "no return or exit terminator is reachable from "
                       "the function entry");
    }
}

} // namespace

bool
checkProgramCfg(const trace::Program &prog, Report &report,
                const CfgOptions &options)
{
    const std::size_t errors_before = report.errorCount();

    if (prog.functions.empty()) {
        report.error(kPass, "no-functions", kNoIndex, kNoIndex, kNoIndex,
                     "program has no functions");
    }
    if (prog.regions.empty()) {
        report.error(kPass, "no-regions", kNoIndex, kNoIndex, kNoIndex,
                     "program has no memory regions");
    }
    for (std::size_t r = 0; r < prog.regions.size(); ++r) {
        const trace::MemRegion &region = prog.regions[r];
        if (region.size == 0) {
            report.error(kPass, "empty-region", kNoIndex, kNoIndex,
                         kNoIndex,
                         "memory region " + std::to_string(r) +
                             " has zero size");
        }
        for (std::size_t s = r + 1; s < prog.regions.size(); ++s) {
            const trace::MemRegion &other = prog.regions[s];
            const bool disjoint =
                region.base + region.size <= other.base ||
                other.base + other.size <= region.base;
            if (!disjoint) {
                report.error(kPass, "region-overlap", kNoIndex, kNoIndex,
                             kNoIndex,
                             "memory regions " + std::to_string(r) +
                                 " and " + std::to_string(s) +
                                 " overlap");
            }
        }
    }

    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        if (prog.functions[f].blocks.empty()) {
            report.error(kPass, "empty-function", f, kNoIndex, kNoIndex,
                         "function has no basic blocks");
            continue;
        }
        if (checkFunctionRanges(prog, f, report)) {
            checkFunctionGraph(prog.functions[f], f, f == 0, options,
                               report);
        }
    }
    return report.errorCount() == errors_before;
}

bool
checkDcfg(const trace::DcfgBuilder &dcfg, Report &report)
{
    constexpr std::string_view pass = "dcfg";
    const std::size_t errors_before = report.errorCount();

    for (const auto &[pc, node] : dcfg.nodes()) {
        if (node.ops.empty()) {
            report.error(pass, "empty-node", kNoIndex, kNoIndex,
                         kNoIndex,
                         "recovered block at pc " + std::to_string(pc) +
                             " has no instructions");
            continue;
        }
        if (node.execCount == 0) {
            report.error(pass, "zero-exec-count", kNoIndex, kNoIndex,
                         kNoIndex,
                         "recovered block at pc " + std::to_string(pc) +
                             " was never executed");
        }
        // A dynamic block must end at its first control transfer.
        for (std::size_t i = 0; i + 1 < node.ops.size(); ++i) {
            if (trace::isControlFlow(node.ops[i])) {
                report.error(pass, "early-control-flow", kNoIndex,
                             kNoIndex, i,
                             "recovered block at pc " +
                                 std::to_string(pc) +
                                 " continues past a control transfer");
            }
        }
        std::uint64_t traversals = 0;
        for (const auto &[succ_pc, count] : node.successors) {
            traversals += count;
            if (dcfg.nodes().count(succ_pc) == 0) {
                // The in-flight tail block at the end of a finite
                // trace legitimately never completes; more than one
                // traversal of a missing node is a real inconsistency.
                if (count > 1) {
                    report.error(pass, "unresolved-successor", kNoIndex,
                                 kNoIndex, kNoIndex,
                                 "edge " + std::to_string(pc) + " -> " +
                                     std::to_string(succ_pc) +
                                     " taken " + std::to_string(count) +
                                     " times targets no recovered "
                                     "block");
                } else {
                    report.note(pass, "truncated-successor", kNoIndex,
                                kNoIndex, kNoIndex,
                                "edge " + std::to_string(pc) + " -> " +
                                    std::to_string(succ_pc) +
                                    " ends the trace mid-block");
                }
            }
        }
        if (traversals > node.execCount) {
            report.error(pass, "traversal-overcount", kNoIndex, kNoIndex,
                         kNoIndex,
                         "block at pc " + std::to_string(pc) +
                             " records " + std::to_string(traversals) +
                             " outgoing traversals but only " +
                             std::to_string(node.execCount) +
                             " executions");
        }
    }
    return report.errorCount() == errors_before;
}

} // namespace rhmd::analysis

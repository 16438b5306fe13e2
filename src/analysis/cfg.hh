/**
 * @file
 * Control-flow-graph verification over the trace IR.
 *
 * Two entry points: checkProgramCfg() verifies a static Program
 * (well-formed blocks, resolvable branch targets, register and region
 * operands in range, power-of-two access sizes, entry/exit
 * invariants, reachability) and
 * checkDcfg() cross-checks a dynamically recovered CFG (every
 * observed edge resolves to a recovered node, block bodies end at
 * their first control transfer, traversal counts are consistent).
 *
 * Unlike trace::Program::validate(), which panics and exists to catch
 * *generator* bugs, these checks emit structured findings and are
 * safe to run on untrusted input — evasion rewrites, deserialized
 * corpora, programs arriving at a deployment. checkProgramCfg()
 * reports an error for every rule validate() panics on, so a program
 * it passes can be executed.
 */

#ifndef RHMD_ANALYSIS_CFG_HH
#define RHMD_ANALYSIS_CFG_HH

#include <vector>

#include "analysis/diagnostics.hh"
#include "trace/dcfg.hh"
#include "trace/program.hh"

namespace rhmd::analysis
{

/** Which optional CFG lints to run. */
struct CfgOptions
{
    /**
     * Warn on blocks unreachable from the function entry. Off by
     * default: generated programs legitimately contain skip-jump dead
     * blocks (the analog of compiler padding), so on a valid corpus
     * this lint is pure noise — enable it when auditing hand-built or
     * rewritten CFGs where dead code is suspicious.
     */
    bool flagUnreachableBlocks = false;
};

/** Derived per-function CFG structure. */
struct CfgInfo
{
    std::vector<std::vector<std::uint32_t>> succs;
    std::vector<std::vector<std::uint32_t>> preds;
    std::vector<bool> reachable;  ///< from the entry block (index 0)
};

/**
 * Build successor/predecessor lists and entry reachability for a
 * function whose branch targets are known to be in range (verify
 * first for untrusted input; out-of-range targets panic here).
 */
CfgInfo buildCfg(const trace::Function &fn);

/**
 * Run all structural CFG checks over @p prog, appending findings to
 * @p report. Returns true when no *error*-severity finding was added
 * (warnings — unreachable blocks, dead fall-through edges — do not
 * fail a program).
 */
bool checkProgramCfg(const trace::Program &prog, Report &report,
                     const CfgOptions &options = {});

/** Consistency checks over a recovered dynamic CFG. */
bool checkDcfg(const trace::DcfgBuilder &dcfg, Report &report);

} // namespace rhmd::analysis

#endif // RHMD_ANALYSIS_CFG_HH

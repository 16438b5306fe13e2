/**
 * @file
 * The static verification pipeline over one program: the CFG check
 * (analysis/cfg.hh), then the semantic-preservation audit of injected
 * instructions (analysis/preservation.hh). tools/rhmd-verify and the
 * evasion audit run it.
 */

#ifndef RHMD_ANALYSIS_VERIFIER_HH
#define RHMD_ANALYSIS_VERIFIER_HH

#include "analysis/cfg.hh"
#include "analysis/diagnostics.hh"
#include "trace/program.hh"

namespace rhmd::analysis
{

/**
 * Verify @p prog. The preservation audit is skipped when the CFG
 * check reports errors: its dataflow fixpoints index blocks by the
 * branch targets the CFG check range-checks.
 */
Report verifyProgram(const trace::Program &prog,
                     const CfgOptions &cfg_options = {});

} // namespace rhmd::analysis

#endif // RHMD_ANALYSIS_VERIFIER_HH

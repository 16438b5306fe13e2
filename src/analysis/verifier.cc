/**
 * @file
 * The verification pipeline.
 */

#include "analysis/verifier.hh"

#include "analysis/preservation.hh"

namespace rhmd::analysis
{

Report
verifyProgram(const trace::Program &prog, const CfgOptions &cfg_options)
{
    Report report;
    checkProgramCfg(prog, report, cfg_options);
    if (report.errorCount() == 0)
        checkPreservation(prog, report);
    return report;
}

} // namespace rhmd::analysis

/**
 * @file
 * Pass manager for the static verification layer.
 *
 * A Verifier owns an ordered list of passes and runs them over one
 * program, short-circuiting after the first pass that reports
 * error-severity findings (later passes assume the invariants the
 * earlier ones establish — the dataflow fixpoints index blocks by the
 * branch targets the CFG pass just range-checked).
 *
 * The default pipeline is CfgVerifyPass then PreservationPass, which
 * is what tools/rhmd-verify and the evasion audit run.
 */

#ifndef RHMD_ANALYSIS_VERIFIER_HH
#define RHMD_ANALYSIS_VERIFIER_HH

#include <memory>
#include <string_view>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/diagnostics.hh"
#include "trace/program.hh"

namespace rhmd::analysis
{

/** One verification pass over a whole program. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable pass name, also used in findings. */
    virtual std::string_view name() const = 0;

    /** Append findings for @p prog to @p report. */
    virtual void run(const trace::Program &prog,
                     Report &report) const = 0;
};

/** Structural CFG verification (analysis/cfg.hh). */
class CfgVerifyPass final : public Pass
{
  public:
    explicit CfgVerifyPass(const CfgOptions &options = {})
        : options_(options)
    {
    }

    std::string_view name() const override { return "cfg"; }
    void run(const trace::Program &prog, Report &report) const override;

  private:
    CfgOptions options_;
};

/** Semantic-preservation audit of injected instructions
 *  (analysis/preservation.hh). */
class PreservationPass final : public Pass
{
  public:
    std::string_view name() const override { return "preservation"; }
    void run(const trace::Program &prog, Report &report) const override;
};

/** Ordered pass pipeline. */
class Verifier
{
  public:
    /** The default pipeline: CfgVerifyPass, PreservationPass. */
    explicit Verifier(const CfgOptions &cfg_options = {});

    /** An empty pipeline to assemble manually. */
    static Verifier empty();

    void addPass(std::unique_ptr<Pass> pass);
    std::size_t passCount() const { return passes_.size(); }

    /**
     * Run the pipeline over @p prog. Passes after the first one to
     * report errors are skipped.
     */
    Report run(const trace::Program &prog) const;

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
};

/** Run the default pipeline over one program. */
Report verifyProgram(const trace::Program &prog);

} // namespace rhmd::analysis

#endif // RHMD_ANALYSIS_VERIFIER_HH

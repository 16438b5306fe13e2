/**
 * @file
 * Structured diagnostics for the static verification layer.
 *
 * Every analysis pass reports through a Report: a list of Findings
 * carrying a stable machine-readable code, a severity, and the
 * (function, block, instruction) coordinates the finding anchors to.
 * Findings never abort — the verifier is for *untrusted* programs
 * (evasion rewrites, deserialized corpora), where trace::Program::
 * validate()'s panics would be the wrong contract.
 */

#ifndef RHMD_ANALYSIS_DIAGNOSTICS_HH
#define RHMD_ANALYSIS_DIAGNOSTICS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace rhmd::analysis
{

/**
 * Finding severity. Errors are contract violations (malformed CFG,
 * clobbering injection); warnings are structurally valid but
 * suspicious shapes (unreachable blocks, dead fall-through edges)
 * that real binaries do exhibit and the lint driver reports
 * separately from its pass/fail verdict.
 */
enum class Severity : std::uint8_t
{
    Error,
    Warning,
    Note,
};

/** Lower-case severity name ("error", "warning", "note"). */
std::string_view severityName(Severity severity);

/** Sentinel for "no such coordinate" in a Finding. */
constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);

/** One diagnostic from one pass. */
struct Finding
{
    Severity severity = Severity::Error;
    std::string_view pass;  ///< emitting pass ("cfg", "preservation")
    std::string_view code;  ///< stable code ("branch-target-range")
    std::size_t function = kNoIndex;  ///< function index, or kNoIndex
    std::size_t block = kNoIndex;     ///< block index, or kNoIndex
    std::size_t inst = kNoIndex;      ///< body index, or kNoIndex
    std::string message;              ///< human-readable detail
};

/** Accumulates findings across passes for one program. */
class Report
{
  public:
    void add(Finding finding);

    /** Shorthand emitters. */
    void error(std::string_view pass, std::string_view code,
               std::size_t function, std::size_t block, std::size_t inst,
               std::string message);
    void warning(std::string_view pass, std::string_view code,
                 std::size_t function, std::size_t block,
                 std::size_t inst, std::string message);
    void note(std::string_view pass, std::string_view code,
              std::size_t function, std::size_t block, std::size_t inst,
              std::string message);

    const std::vector<Finding> &findings() const { return findings_; }
    std::size_t errorCount() const { return errors_; }
    std::size_t warningCount() const { return warnings_; }
    std::size_t noteCount() const { return notes_; }

    /** True when the program passed: no error-severity findings. */
    bool clean() const { return errors_ == 0; }

    /**
     * Machine-readable form: one JSON object per finding, one per
     * line, tagged with @p program so corpus-wide streams stay
     * attributable.
     */
    std::string toJsonLines(std::string_view program) const;

    /** "2 errors, 1 warning, 0 notes". */
    std::string summary() const;

  private:
    std::vector<Finding> findings_;
    std::size_t errors_ = 0;
    std::size_t warnings_ = 0;
    std::size_t notes_ = 0;
};

} // namespace rhmd::analysis

#endif // RHMD_ANALYSIS_DIAGNOSTICS_HH

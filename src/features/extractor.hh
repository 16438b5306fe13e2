/**
 * @file
 * Single-pass feature extraction: a TraceSink that drives the
 * monitoring-unit model and slices the stream into collection
 * windows for any number of periods simultaneously.
 */

#ifndef RHMD_FEATURES_EXTRACTOR_HH
#define RHMD_FEATURES_EXTRACTOR_HH

#include <cstdint>
#include <vector>

#include "features/window.hh"
#include "trace/execution.hh"
#include "uarch/cpi_model.hh"
#include "uarch/perf_counters.hh"

namespace rhmd::features
{

/**
 * Consumes one program's committed stream and produces RawWindows
 * for every requested collection period in a single pass. Trailing
 * partial windows are discarded by default, as in the paper's
 * steady-state methodology; call finish() to flush them as windows
 * flagged truncated (short programs and traces whose length is not a
 * multiple of the period otherwise lose their tail data).
 */
class FeatureSession : public trace::TraceSink
{
  public:
    /**
     * @param periods window sizes in instructions (e.g. {5000, 10000});
     *                must be unique and positive.
     * @param pmu     monitoring hardware configuration.
     */
    explicit FeatureSession(std::vector<std::uint32_t> periods,
                            const uarch::PmuConfig &pmu = {});

    void consume(const trace::DynInst &inst) override;

    /**
     * Flush the in-progress partial window of every period as a
     * final window with truncated = true (periods whose stream ended
     * exactly on a boundary emit nothing). Idempotent; call after
     * the trace ends and before reading windows()/takeWindows().
     */
    void finish();

    /** Completed windows for one of the configured periods. */
    const std::vector<RawWindow> &windows(std::uint32_t period) const;

    /**
     * Move the completed windows of @p period out of the session
     * (the corpus-extraction hot loop uses this instead of deep-
     * copying every program's windows). The session's vector for
     * that period is left empty.
     */
    std::vector<RawWindow> takeWindows(std::uint32_t period);

    /** Estimated whole-trace cycles (CPI model). */
    double totalCycles() const { return cpi_.cycles(); }

    /** Total committed instructions consumed. */
    std::uint64_t totalInsts() const { return totalInsts_; }

  private:
    struct PeriodAccum
    {
        std::uint32_t period = 0;
        RawWindow current;
        std::vector<RawWindow> done;
        uarch::EventCounts eventBase{};  ///< cumulative snapshot
        double cycleBase = 0.0;
        std::uint64_t injectedInWindow = 0;
    };

    /** Finalize the in-progress window of @p accum and push it. */
    void closeWindow(PeriodAccum &accum, bool truncated);

    uarch::PerfMonitor monitor_;
    uarch::CpiModel cpi_;
    std::vector<PeriodAccum> accums_;
    bool haveLastAddr_ = false;
    std::uint64_t lastAddr_ = 0;
    std::uint64_t totalInsts_ = 0;
};

} // namespace rhmd::features

#endif // RHMD_FEATURES_EXTRACTOR_HH

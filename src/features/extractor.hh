/**
 * @file
 * Single-pass feature extraction: a trace sink that drives the
 * monitoring-unit model and slices the stream into collection
 * windows for any number of periods simultaneously.
 */

#ifndef RHMD_FEATURES_EXTRACTOR_HH
#define RHMD_FEATURES_EXTRACTOR_HH

#include <cstddef>
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
class FeatureSession
{
  public:
    /**
     * @param periods window sizes in instructions (e.g. {5000, 10000});
     *                must be unique and positive.
     */
    explicit FeatureSession(std::vector<std::uint32_t> periods);

    /**
     * Account one committed instruction (the trace-sink entry point
     * trace::Executor::run calls). Inline with the monitor and CPI
     * steps it runs, so the simulation loop calls out only on a
     * cache miss or at a window boundary.
     */
    [[gnu::always_inline]] void consume(const trace::DynInst &inst);

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

    /**
     * Add the segment's counts to every period's window, close the
     * windows that are full, and start the next segment.
     */
    void closeSegment();

    /** Finalize the in-progress window of @p accum and push it. */
    void closeWindow(PeriodAccum &accum, bool truncated);

    uarch::PerfMonitor monitor_;
    uarch::CpiModel cpi_;
    std::vector<PeriodAccum> accums_;

    /**
     * Histograms of the current segment: the instructions since the
     * last window boundary of any period. No period's boundary falls
     * inside a segment, so each instruction is counted once here and
     * folded into every period's window when the segment closes.
     */
    RawWindow segment_;
    std::uint64_t segmentInjected_ = 0;
    std::uint64_t segmentLength_ = 0;  ///< segment's length when full
    std::uint64_t untilBoundary_ = 0;  ///< instructions left in it

    bool haveLastAddr_ = false;
    std::uint64_t lastAddr_ = 0;
    std::uint64_t totalInsts_ = 0;
};

inline void
FeatureSession::consume(const trace::DynInst &inst)
{
    const uarch::StepOutcome outcome = monitor_.step(inst);
    cpi_.account(inst, outcome);
    ++totalInsts_;

    ++segment_.opcodeCounts[static_cast<std::size_t>(inst.op)];
    if (inst.isLoad || inst.isStore) {
        if (haveLastAddr_)
            ++segment_.memDeltaBins[memDeltaBin(lastAddr_, inst.addr)];
        lastAddr_ = inst.addr;
        haveLastAddr_ = true;
    }
    segmentInjected_ += inst.injected;
    if (--untilBoundary_ == 0) [[unlikely]]
        closeSegment();
}

} // namespace rhmd::features

#endif // RHMD_FEATURES_EXTRACTOR_HH

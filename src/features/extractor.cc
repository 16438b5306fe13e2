/**
 * @file
 * Single-pass multi-period feature extraction implementation.
 */

#include "features/extractor.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rhmd::features
{

FeatureSession::FeatureSession(std::vector<std::uint32_t> periods,
                               const uarch::PmuConfig &pmu)
    : monitor_(pmu)
{
    fatal_if(periods.empty(), "FeatureSession needs at least one period");
    std::sort(periods.begin(), periods.end());
    fatal_if(std::adjacent_find(periods.begin(), periods.end()) !=
                 periods.end(),
             "FeatureSession periods must be unique");
    accums_.resize(periods.size());
    for (std::size_t i = 0; i < periods.size(); ++i) {
        fatal_if(periods[i] == 0, "collection period must be positive");
        accums_[i].period = periods[i];
    }
}

void
FeatureSession::consume(const trace::DynInst &inst)
{
    const uarch::StepOutcome outcome = monitor_.step(inst);
    cpi_.account(inst, outcome);
    ++totalInsts_;

    // Memory-delta bin, computed once and shared by every period.
    std::size_t delta_bin = kNumMemBins;  // sentinel: no access
    if (inst.isLoad || inst.isStore) {
        if (haveLastAddr_)
            delta_bin = memDeltaBin(lastAddr_, inst.addr);
        lastAddr_ = inst.addr;
        haveLastAddr_ = true;
    }

    const auto op_index = static_cast<std::size_t>(inst.op);
    for (PeriodAccum &accum : accums_) {
        RawWindow &win = accum.current;
        ++win.opcodeCounts[op_index];
        if (delta_bin < kNumMemBins)
            ++win.memDeltaBins[delta_bin];
        if (inst.injected)
            ++accum.injectedInWindow;
        if (++win.instCount < accum.period)
            continue;
        closeWindow(accum, /*truncated=*/false);
    }
}

void
FeatureSession::closeWindow(PeriodAccum &accum, bool truncated)
{
    RawWindow &win = accum.current;
    // Window boundary: architectural events and cycles are the
    // cumulative monitor/CPI state minus the previous snapshot.
    const uarch::EventCounts &cumulative = monitor_.counts();
    uarch::saturatingDelta(cumulative, accum.eventBase, win.events);
    accum.eventBase = cumulative;
    win.cycles = cpi_.cycles() - accum.cycleBase;
    accum.cycleBase = cpi_.cycles();
    win.injectedFrac =
        static_cast<double>(accum.injectedInWindow) /
        static_cast<double>(win.instCount);
    accum.injectedInWindow = 0;
    win.truncated = truncated;

    accum.done.push_back(win);
    win = RawWindow{};
}

void
FeatureSession::finish()
{
    for (PeriodAccum &accum : accums_) {
        if (accum.current.instCount == 0)
            continue;  // the stream ended exactly on a boundary
        closeWindow(accum, /*truncated=*/true);
    }
}

const std::vector<RawWindow> &
FeatureSession::windows(std::uint32_t period) const
{
    for (const PeriodAccum &accum : accums_) {
        if (accum.period == period)
            return accum.done;
    }
    rhmd_panic("period ", period, " was not configured");
}

std::vector<RawWindow>
FeatureSession::takeWindows(std::uint32_t period)
{
    for (PeriodAccum &accum : accums_) {
        if (accum.period == period)
            return std::move(accum.done);
    }
    rhmd_panic("period ", period, " was not configured");
}

} // namespace rhmd::features

/**
 * @file
 * Single-pass multi-period feature extraction implementation.
 */

#include "features/extractor.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rhmd::features
{

FeatureSession::FeatureSession(std::vector<std::uint32_t> periods)
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
    // Sorted: the shortest period ends the first segment.
    segmentLength_ = untilBoundary_ = accums_.front().period;
}

void
FeatureSession::closeSegment()
{
    const std::uint64_t length = segmentLength_ - untilBoundary_;
    std::uint64_t next = ~std::uint64_t{0};
    for (PeriodAccum &accum : accums_) {
        RawWindow &win = accum.current;
        for (std::size_t op = 0; op < trace::kNumOpClasses; ++op)
            win.opcodeCounts[op] += segment_.opcodeCounts[op];
        for (std::size_t bin = 0; bin < kNumMemBins; ++bin)
            win.memDeltaBins[bin] += segment_.memDeltaBins[bin];
        win.instCount += length;
        accum.injectedInWindow += segmentInjected_;
        if (win.instCount == accum.period)
            closeWindow(accum, /*truncated=*/false);
        next = std::min<std::uint64_t>(next,
                                       accum.period - win.instCount);
    }
    segment_ = RawWindow{};
    segmentInjected_ = 0;
    segmentLength_ = untilBoundary_ = next;
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
    // Fold the partial segment in first; it ends before every
    // period's boundary, so no window fills here.
    if (untilBoundary_ != segmentLength_)
        closeSegment();
    for (PeriodAccum &accum : accums_) {
        if (accum.current.instCount == 0)
            continue;  // the stream ended exactly on a boundary
        closeWindow(accum, /*truncated=*/true);
    }
    segmentLength_ = untilBoundary_ = accums_.front().period;
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

/**
 * @file
 * Performance-monitoring unit implementation.
 */

#include "uarch/perf_counters.hh"

#include "support/logging.hh"

namespace rhmd::uarch
{

void
saturatingDelta(const EventCounts &cumulative, const EventCounts &base,
                EventCounts &out)
{
    for (std::size_t e = 0; e < kNumEvents; ++e)
        out[e] = cumulative[e] >= base[e] ? cumulative[e] - base[e] : 0;
}

void
eventRates(const EventCounts &counts, double insts, double *out)
{
    for (std::size_t e = 0; e < kNumEvents; ++e)
        out[e] = static_cast<double>(counts[e]) / insts;
}

PerfMonitor::PerfMonitor()
    : icache_(kL1Geometry), dcache_(kL1Geometry),
      predictor_(kPredictorBits, kPredictorBits)
{
}

} // namespace rhmd::uarch

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

std::string_view
eventName(Event event)
{
    switch (event) {
      case Event::Loads: return "loads";
      case Event::Stores: return "stores";
      case Event::CondBranches: return "cond_branches";
      case Event::TakenBranches: return "taken_branches";
      case Event::Mispredicts: return "mispredicts";
      case Event::DCacheMisses: return "dcache_misses";
      case Event::ICacheMisses: return "icache_misses";
      case Event::Unaligned: return "unaligned";
      case Event::Calls: return "calls";
      case Event::Returns: return "returns";
      case Event::Syscalls: return "syscalls";
      case Event::Atomics: return "atomics";
      case Event::NumEvents: break;
    }
    rhmd_panic("bad event id");
}

PerfMonitor::PerfMonitor(const PmuConfig &config)
    : icache_(config.icache),
      dcache_(config.dcache),
      predictor_(config.predictorTableBits,
                 config.useGshare ? config.predictorTableBits : 0)
{
}

void
PerfMonitor::reset()
{
    counts_.fill(0);
    icache_.reset();
    dcache_.reset();
    predictor_.reset();
}

} // namespace rhmd::uarch

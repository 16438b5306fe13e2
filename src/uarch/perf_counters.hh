/**
 * @file
 * The performance-monitoring unit model: drives the cache and branch
 * predictor models with the committed instruction stream and counts
 * the architectural events the paper's Architectural feature family
 * collects.
 */

#ifndef RHMD_UARCH_PERF_COUNTERS_HH
#define RHMD_UARCH_PERF_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string_view>

#include "trace/execution.hh"
#include "uarch/branch_predictor.hh"
#include "uarch/cache.hh"

namespace rhmd::uarch
{

/** Architectural event identifiers (indices into EventCounts). */
enum class Event : std::uint8_t
{
    Loads,
    Stores,
    CondBranches,
    TakenBranches,
    Mispredicts,
    DCacheMisses,
    ICacheMisses,
    Unaligned,
    Calls,
    Returns,
    Syscalls,
    Atomics,
    NumEvents
};

/** Number of architectural events tracked. */
constexpr std::size_t kNumEvents =
    static_cast<std::size_t>(Event::NumEvents);

/** Display name of an event. */
std::string_view eventName(Event event);

/** Per-window event counters. */
using EventCounts = std::array<std::uint64_t, kNumEvents>;

/**
 * out[e] = cumulative[e] - base[e], saturating at zero. A real
 * counter delta never goes negative, so a snapshot below the previous
 * one clamps instead of wrapping (the window-boundary rule in
 * FeatureSession).
 */
void saturatingDelta(const EventCounts &cumulative,
                     const EventCounts &base, EventCounts &out);

/**
 * out[e] = double(counts[e]) / insts for all kNumEvents events —
 * the Architectural feature family's count-to-rate conversion.
 */
void eventRates(const EventCounts &counts, double insts, double *out);

/** Per-instruction microarchitectural outcome (feeds the CPI model). */
struct StepOutcome
{
    std::uint32_t dcacheMisses = 0;
    std::uint32_t icacheMisses = 0;
    bool mispredicted = false;
    bool unaligned = false;
};

/** Configuration of the modelled monitoring hardware. */
struct PmuConfig
{
    CacheConfig icache{32 * 1024, 8, 64};
    CacheConfig dcache{32 * 1024, 8, 64};
    std::uint32_t predictorTableBits = 12;
    bool useGshare = true;
};

/**
 * The monitoring unit: one instance per executing program. step()
 * consumes each committed instruction, updates the structural models,
 * and bumps the event counters. The feature extractor snapshots and
 * clears the counters at collection-window boundaries.
 */
class PerfMonitor
{
  public:
    explicit PerfMonitor(const PmuConfig &config = {});

    /** Account one committed instruction. */
    StepOutcome step(const trace::DynInst &inst);

    /** Current window's counters, as maintained internally. */
    const EventCounts &counts() const { return counts_; }

    /** Zero the window counters (structural state persists). */
    void clearCounts() { counts_.fill(0); }

    /** Full reset: counters and structural state. */
    void reset();

  private:
    void bump(Event event, std::uint64_t n = 1);

    PmuConfig config_;
    Cache icache_;
    Cache dcache_;
    BimodalPredictor bimodal_;
    GsharePredictor gshare_;
    EventCounts counts_{};
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_PERF_COUNTERS_HH

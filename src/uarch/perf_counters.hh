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

/** Geometry of the modelled core's L1 instruction and data caches:
 *  32 KiB, 8-way, 64-byte lines. */
inline constexpr CacheConfig kL1Geometry{32 * 1024, 8, 64};

/** log2 of the modelled gshare predictor's counter table, which is
 *  also its global-history length. */
inline constexpr std::uint32_t kPredictorBits = 12;

/**
 * The monitoring unit of the one modelled core: one instance per
 * executing program. step() consumes each committed instruction,
 * updates the structural models, and bumps the event counters. The
 * feature extractor snapshots and clears the counters at
 * collection-window boundaries.
 */
class PerfMonitor
{
  public:
    PerfMonitor();

    /**
     * Account one committed instruction. Inline, like everything it
     * calls on a cache hit, so the simulation loop calls out only on
     * a cache miss.
     */
    [[gnu::always_inline]] StepOutcome step(const trace::DynInst &inst);

    /** Current window's counters, as maintained internally. */
    const EventCounts &counts() const { return counts_; }

    /** Zero the window counters (structural state persists). */
    void clearCounts() { counts_.fill(0); }

  private:
    void
    bump(Event event, std::uint64_t n = 1)
    {
        counts_[static_cast<std::size_t>(event)] += n;
    }

    Cache icache_;
    Cache dcache_;
    BranchPredictor predictor_;  ///< gshare
    EventCounts counts_{};
};

inline StepOutcome
PerfMonitor::step(const trace::DynInst &inst)
{
    StepOutcome outcome;

    // Instruction fetch.
    outcome.icacheMisses = icache_.access(inst.pc, inst.size);
    bump(Event::ICacheMisses, outcome.icacheMisses);

    // Data access.
    if (inst.isLoad || inst.isStore) {
        bump(Event::Loads, inst.isLoad);
        bump(Event::Stores, inst.isStore);
        outcome.dcacheMisses = dcache_.access(inst.addr, inst.accessSize);
        bump(Event::DCacheMisses, outcome.dcacheMisses);
        // Access sizes are powers of two (Program::validate rejects
        // any other), so the remainder is a mask.
        const std::uint64_t size = inst.accessSize;
        outcome.unaligned = size > 1 && (inst.addr & (size - 1)) != 0;
        bump(Event::Unaligned, outcome.unaligned);
    }

    // Control flow.
    if (inst.isCondBranch) {
        bump(Event::CondBranches);
        outcome.mispredicted = predictor_.predict(inst.pc) != inst.taken;
        bump(Event::Mispredicts, outcome.mispredicted);
        predictor_.update(inst.pc, inst.taken);
    }
    bump(Event::TakenBranches, inst.isBranch && inst.taken);

    switch (inst.op) {
      case trace::OpClass::Call:
        bump(Event::Calls);
        break;
      case trace::OpClass::Ret:
        bump(Event::Returns);
        break;
      case trace::OpClass::SystemOp:
        bump(Event::Syscalls);
        break;
      case trace::OpClass::Xchg:
        bump(Event::Atomics);
        break;
      default:
        break;
    }

    return outcome;
}

} // namespace rhmd::uarch

#endif // RHMD_UARCH_PERF_COUNTERS_HH

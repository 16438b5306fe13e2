/**
 * @file
 * A simple analytic cycle model: converts a committed instruction
 * stream plus its microarchitectural outcomes into estimated cycles.
 * Used to report Fig. 9's dynamic (time) overhead of injected
 * instructions, and by anyone who wants collection windows measured
 * in cycles rather than instructions.
 */

#ifndef RHMD_UARCH_CPI_MODEL_HH
#define RHMD_UARCH_CPI_MODEL_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "trace/execution.hh"
#include "uarch/perf_counters.hh"

namespace rhmd::uarch
{

/** Sustained instructions per cycle of the modelled core. */
inline constexpr double kIssueWidth = 2.0;

// Stall penalties of the modelled core, in cycles per event.
inline constexpr double kDcacheMissPenalty = 20.0; ///< per L1D miss
inline constexpr double kIcacheMissPenalty = 12.0; ///< per L1I miss
inline constexpr double kMispredictPenalty = 14.0; ///< per mispredict
inline constexpr double kUnalignedPenalty = 2.0;   ///< per split access

/**
 * Accumulates an estimated cycle count. Long-latency opcodes
 * contribute their latency; everything else is bounded by issue
 * width; stall events add their penalties.
 */
class CpiModel
{
  public:
    CpiModel();

    /** Account one instruction and its outcomes. */
    [[gnu::always_inline]] void
    account(const trace::DynInst &inst, const StepOutcome &outcome)
    {
        ++instructions_;
        double stall = 0.0;
        stall += outcome.dcacheMisses * kDcacheMissPenalty;
        stall += outcome.icacheMisses * kIcacheMissPenalty;
        if (outcome.mispredicted)
            stall += kMispredictPenalty;
        if (outcome.unaligned)
            stall += kUnalignedPenalty;
        cycles_ += opCycles_[static_cast<std::size_t>(inst.op)] + stall;
    }

    /** Estimated cycles so far. */
    double cycles() const { return cycles_; }

    /** Committed instructions so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** Cycles per instruction so far (0 when empty). */
    double cpi() const;

  private:
    /**
     * Stall-free cycles per opcode class: the issue slot, or half
     * the latency of a long-latency op (partially overlapped),
     * whichever is larger.
     */
    std::array<double, trace::kNumOpClasses> opCycles_{};
    double cycles_ = 0.0;
    std::uint64_t instructions_ = 0;
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_CPI_MODEL_HH

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

/** Penalty/throughput parameters of the modelled core. */
struct CpiConfig
{
    double issueWidth = 2.0;         ///< sustained instructions/cycle
    double dcacheMissPenalty = 20.0; ///< cycles per L1D miss
    double icacheMissPenalty = 12.0; ///< cycles per L1I miss
    double mispredictPenalty = 14.0; ///< cycles per branch mispredict
    double unalignedPenalty = 2.0;   ///< extra cycles per split access
};

/**
 * Accumulates an estimated cycle count. Long-latency opcodes
 * contribute their latency; everything else is bounded by issue
 * width; stall events add their penalties.
 */
class CpiModel
{
  public:
    explicit CpiModel(const CpiConfig &config = {});

    /** Account one instruction and its outcomes. */
    [[gnu::always_inline]] void
    account(const trace::DynInst &inst, const StepOutcome &outcome)
    {
        ++instructions_;
        double stall = 0.0;
        stall += outcome.dcacheMisses * config_.dcacheMissPenalty;
        stall += outcome.icacheMisses * config_.icacheMissPenalty;
        if (outcome.mispredicted)
            stall += config_.mispredictPenalty;
        if (outcome.unaligned)
            stall += config_.unalignedPenalty;
        cycles_ += opCycles_[static_cast<std::size_t>(inst.op)] + stall;
    }

    /** Estimated cycles so far. */
    double cycles() const { return cycles_; }

    /** Committed instructions so far. */
    std::uint64_t instructions() const { return instructions_; }

    /** Cycles per instruction so far (0 when empty). */
    double cpi() const;

  private:
    CpiConfig config_;
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

/**
 * @file
 * The conditional-branch direction predictor (bimodal or gshare),
 * supplying the branch-misprediction events of the Architectural
 * feature family.
 */

#ifndef RHMD_UARCH_BRANCH_PREDICTOR_HH
#define RHMD_UARCH_BRANCH_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhmd::uarch
{

/**
 * A table of 2-bit saturating counters indexed by the branch pc
 * (low 2 bits dropped) xor the last @c history_bits global branch
 * outcomes. With no history bits the index is the pc alone: the
 * bimodal predictor. With history bits it is gshare. Which of the
 * two a monitor models is fixed at construction, so predicting a
 * branch dispatches on nothing.
 */
class BranchPredictor
{
  public:
    /**
     * @param table_bits   log2 of the counter-table size.
     * @param history_bits global-history length (<= table_bits);
     *                     0 is bimodal.
     */
    explicit BranchPredictor(std::uint32_t table_bits = 12,
                             std::uint32_t history_bits = 0);

    /** Predict the direction of the branch at @p pc. */
    [[gnu::always_inline]] bool
    predict(std::uint64_t pc) const
    {
        return counters_[index(pc)] >= 2;
    }

    /** Train with the resolved direction. */
    [[gnu::always_inline]] void
    update(std::uint64_t pc, bool taken)
    {
        std::uint8_t &counter = counters_[index(pc)];
        if (taken)
            counter = static_cast<std::uint8_t>(counter + (counter < 3));
        else
            counter = static_cast<std::uint8_t>(counter - (counter > 0));
        history_ = (history_ << 1) | (taken ? 1 : 0);
    }

  private:
    std::size_t
    index(std::uint64_t pc) const
    {
        return static_cast<std::size_t>(
            ((pc >> 2) ^ (history_ & historyMask_)) & tableMask_);
    }

    std::uint64_t tableMask_;
    std::uint64_t historyMask_;
    std::uint64_t history_ = 0;
    std::vector<std::uint8_t> counters_;
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_BRANCH_PREDICTOR_HH

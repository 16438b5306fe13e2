/**
 * @file
 * Branch predictor construction.
 */

#include "uarch/branch_predictor.hh"

#include "support/logging.hh"

namespace rhmd::uarch
{

BranchPredictor::BranchPredictor(std::uint32_t table_bits,
                                 std::uint32_t history_bits)
{
    fatal_if(table_bits == 0 || table_bits > 24,
             "unreasonable branch predictor table size");
    fatal_if(history_bits > table_bits,
             "branch history cannot exceed table index width");
    tableMask_ = (std::uint64_t{1} << table_bits) - 1;
    historyMask_ = (std::uint64_t{1} << history_bits) - 1;
    counters_.assign(std::size_t{1} << table_bits, 1);  // weakly NT
}

} // namespace rhmd::uarch

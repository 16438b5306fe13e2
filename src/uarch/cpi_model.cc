/**
 * @file
 * Cycle model implementation.
 */

#include "uarch/cpi_model.hh"

#include <algorithm>

namespace rhmd::uarch
{

CpiModel::CpiModel()
{
    const double base = 1.0 / kIssueWidth;
    for (std::size_t op = 0; op < trace::kNumOpClasses; ++op) {
        const auto &info = trace::opInfo(trace::opFromIndex(op));
        const double latency = info.latency > 2
            ? static_cast<double>(info.latency) * 0.5 : 0.0;
        opCycles_[op] = std::max(base, latency);
    }
}

double
CpiModel::cpi() const
{
    if (instructions_ == 0)
        return 0.0;
    return cycles_ / static_cast<double>(instructions_);
}

} // namespace rhmd::uarch

/**
 * @file
 * Workload registry.
 */

#include "workload.hh"

namespace perfbench
{

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"simulate",
                                                   "evade_retrain", "serve"};
    return names;
}

std::unique_ptr<Workload>
makeWorkload(std::string_view name, std::uint64_t seed)
{
    if (name == "simulate")
        return makeSimulate(seed);
    if (name == "evade_retrain")
        return makeEvadeRetrain(seed);
    if (name == "serve")
        return makeServe(seed);
    return nullptr;
}

} // namespace perfbench

/**
 * @file
 * Service-level chaos injector implementation.
 */

#include "serve/chaos.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "runtime/fault_injection.hh"
#include "support/logging.hh"

namespace rhmd::serve
{

ChaosInjector::ChaosInjector(const ChaosConfig &config)
    : config_(config),
      active_(config.workerStallProb > 0.0 || config.batchDelayProb > 0.0 ||
              config.transientScoreFaultProb > 0.0 ||
              !config.brokenDetectors.empty() ||
              static_cast<bool>(config.onBatchPlanned)),
      rng_(config.seed)
{
    for (double p :
         {config_.workerStallProb, config_.batchDelayProb,
          config_.transientScoreFaultProb}) {
        fatal_if(p < 0.0 || p > 1.0,
                 "chaos probabilities must be in [0, 1]");
    }
}

bool
ChaosInjector::roll(double prob)
{
    if (prob <= 0.0)
        return false;
    const std::lock_guard<std::mutex> lock(mutex_);
    return rng_.chance(prob);
}

void
ChaosInjector::maybeStallWorker()
{
    if (roll(config_.workerStallProb) &&
        config_.workerStallMicros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.workerStallMicros));
    }
}

void
ChaosInjector::maybeDelayBatch()
{
    if (roll(config_.batchDelayProb) && config_.batchDelayMicros > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(config_.batchDelayMicros));
    }
}

bool
ChaosInjector::scoreFault(std::uint64_t key, std::size_t epoch,
                          std::size_t detector) const
{
    if (!active_)
        return false;
    if (std::find(config_.brokenDetectors.begin(),
                  config_.brokenDetectors.end(),
                  detector) != config_.brokenDetectors.end())
        return true;
    return runtime::FaultInjector::keyedFault(
        config_.seed, key, epoch, detector,
        config_.transientScoreFaultProb);
}

void
ChaosInjector::batchPlanned(std::uint64_t pool_version) const
{
    if (config_.onBatchPlanned)
        config_.onBatchPlanned(pool_version);
}

} // namespace rhmd::serve

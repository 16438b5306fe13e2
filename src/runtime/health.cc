/**
 * @file
 * Health monitor implementation.
 */

#include "runtime/health.hh"

#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace rhmd::runtime
{

namespace
{

/**
 * Process-wide detector failure count. With the transition counters
 * below, what a deployment watches; driven by seeded fault streams,
 * so Deterministic.
 */
void
countFailure()
{
    static support::Counter &failures = support::metrics().counter(
        "health.failures", "detector failures recorded");
    failures.add(1);
}

/** Process-wide count of health transitions by kind. */
void
countHealthEvent(HealthEvent::Kind kind)
{
    static support::Counter &quarantines = support::metrics().counter(
        "health.quarantines", "detectors sent to quarantine");
    static support::Counter &probations = support::metrics().counter(
        "health.probations", "quarantine cool-downs elapsed");
    static support::Counter &recoveries = support::metrics().counter(
        "health.recoveries", "detectors recovered from probation");
    switch (kind) {
      case HealthEvent::Kind::Quarantine: quarantines.add(1); return;
      case HealthEvent::Kind::Probation: probations.add(1); return;
      case HealthEvent::Kind::Recovery: recoveries.add(1); return;
    }
    rhmd_panic("bad health event kind");
}

} // namespace

std::size_t
failoverBudget(std::size_t pool_size, std::size_t failure_threshold)
{
    if (failure_threshold >= kMaxFailoverAttempts / pool_size)
        return kMaxFailoverAttempts;
    return pool_size * failure_threshold;
}

std::string_view
healthName(DetectorHealth health)
{
    switch (health) {
      case DetectorHealth::Healthy: return "healthy";
      case DetectorHealth::Quarantined: return "quarantined";
      case DetectorHealth::Probation: return "probation";
    }
    rhmd_panic("bad health state");
}

std::string_view
healthEventName(HealthEvent::Kind kind)
{
    switch (kind) {
      case HealthEvent::Kind::Quarantine: return "quarantine";
      case HealthEvent::Kind::Probation: return "probation";
      case HealthEvent::Kind::Recovery: return "recovery";
    }
    rhmd_panic("bad health event kind");
}

HealthMonitor::HealthMonitor(std::size_t pool_size,
                             const HealthConfig &config)
    : config_(config), states_(pool_size)
{
    fatal_if(pool_size == 0, "HealthMonitor needs a non-empty pool");
    fatal_if(config_.failureThreshold == 0,
             "failure threshold must be positive");
}

void
HealthMonitor::tick()
{
    ++epoch_;
    for (std::size_t i = 0; i < states_.size(); ++i) {
        DetectorState &state = states_[i];
        if (state.health == DetectorHealth::Quarantined &&
            epoch_ - state.quarantinedAt >= config_.quarantineEpochs) {
            state.health = DetectorHealth::Probation;
            state.probationStreak = 0;
            state.consecutiveFailures = 0;
            events_.push_back({epoch_, i, HealthEvent::Kind::Probation,
                               "quarantine cool-down elapsed"});
            countHealthEvent(HealthEvent::Kind::Probation);
        }
    }
}

void
HealthMonitor::recordSuccess(std::size_t detector)
{
    DetectorState &state = states_.at(detector);
    state.consecutiveFailures = 0;
    if (state.health == DetectorHealth::Probation) {
        if (++state.probationStreak >= kProbationSuccesses) {
            state.health = DetectorHealth::Healthy;
            events_.push_back({epoch_, detector,
                               HealthEvent::Kind::Recovery,
                               "probation passed"});
            countHealthEvent(HealthEvent::Kind::Recovery);
        }
    }
}

void
HealthMonitor::quarantine(std::size_t detector, std::string why)
{
    DetectorState &state = states_[detector];
    state.health = DetectorHealth::Quarantined;
    state.quarantinedAt = epoch_;
    state.probationStreak = 0;
    events_.push_back({epoch_, detector, HealthEvent::Kind::Quarantine,
                       std::move(why)});
    countHealthEvent(HealthEvent::Kind::Quarantine);
}

void
HealthMonitor::recordFailure(std::size_t detector, std::string_view why)
{
    DetectorState &state = states_.at(detector);
    ++state.totalFailures;
    ++state.consecutiveFailures;
    state.probationStreak = 0;
    countFailure();
    if (state.health == DetectorHealth::Probation) {
        // One strike on probation: straight back to quarantine.
        quarantine(detector,
                   std::string("failed during probation: ").append(why));
        return;
    }
    if (state.health == DetectorHealth::Healthy &&
        state.consecutiveFailures >= config_.failureThreshold) {
        quarantine(detector, std::string(why));
    }
}

DetectorHealth
HealthMonitor::health(std::size_t detector) const
{
    return states_.at(detector).health;
}

bool
HealthMonitor::available(std::size_t detector) const
{
    return states_.at(detector).health != DetectorHealth::Quarantined;
}

std::size_t
HealthMonitor::availableCount() const
{
    std::size_t n = 0;
    for (std::size_t i = 0; i < states_.size(); ++i)
        n += available(i) ? 1 : 0;
    return n;
}

std::size_t
HealthMonitor::quarantinedCount() const
{
    return states_.size() - availableCount();
}

support::StatusOr<std::vector<double>>
HealthMonitor::effectivePolicy(const std::vector<double> &base) const
{
    panic_if(base.size() != states_.size(),
             "policy size does not match the monitored pool");
    std::vector<double> policy(base.size(), 0.0);
    double total = 0.0;
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (available(i)) {
            policy[i] = base[i];
            total += base[i];
        }
    }
    if (total <= 0.0)
        return support::unavailableError(
            "every base detector is quarantined; the pool cannot "
            "classify");
    for (double &p : policy)
        p /= total;
    return policy;
}

std::size_t
HealthMonitor::failureCount(std::size_t detector) const
{
    return states_.at(detector).totalFailures;
}

} // namespace rhmd::runtime

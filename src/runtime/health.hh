/**
 * @file
 * Detector health monitoring and graceful degradation policy.
 *
 * An always-on RHMD cannot abort because one base detector starts
 * returning garbage: the pool must quarantine the failing member,
 * renormalize the switching policy over the survivors, and keep
 * classifying. Quarantined detectors get a probation window after a
 * cool-down — transient faults (voltage noise, a wedged counter that
 * recovered) should not permanently shrink the pool, since pool
 * diversity is exactly what the paper's Theorem 1 bound depends on.
 */

#ifndef RHMD_RUNTIME_HEALTH_HH
#define RHMD_RUNTIME_HEALTH_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/status.hh"

namespace rhmd::runtime
{

/** Lifecycle of one base detector under the health monitor. */
enum class DetectorHealth : std::uint8_t
{
    /** Scoring normally; full policy weight. */
    Healthy,
    /** Removed from the switching policy after repeated failures. */
    Quarantined,
    /**
     * Back in the policy after the quarantine cool-down, but one
     * failure re-quarantines immediately.
     */
    Probation,
};

/** Display name ("healthy", "quarantined", "probation"). */
std::string_view healthName(DetectorHealth health);

/** Degradation policy knobs. */
struct HealthConfig
{
    /** Consecutive failures that trigger quarantine. */
    std::size_t failureThreshold = 3;

    /** Epochs a detector stays quarantined before probation. */
    std::uint64_t quarantineEpochs = 32;
};

/** Consecutive probation successes that return a detector to Healthy. */
constexpr std::size_t kProbationSuccesses = 4;

/**
 * Hard ceiling on failover redraws for one failed epoch. Part of the
 * serving replay contract: serial replays of a served request apply
 * the same ceiling.
 */
constexpr std::size_t kMaxFailoverAttempts = 64;

/**
 * Redraws one failed epoch may take: enough for every pool member to
 * burn its whole failure streak (@p pool_size * @p failure_threshold),
 * capped at kMaxFailoverAttempts so a "never quarantine" threshold
 * can neither overflow the product nor spin a broken pool through
 * millions of redraws. serve::DetectionService applies it. @p
 * pool_size must be positive.
 */
std::size_t failoverBudget(std::size_t pool_size,
                           std::size_t failure_threshold);

/** One health transition in the structured degradation event log. */
struct HealthEvent
{
    enum class Kind : std::uint8_t
    {
        Quarantine,
        Probation,
        Recovery,
    };

    std::uint64_t epoch = 0;
    std::size_t detector = 0;
    Kind kind = Kind::Quarantine;
    std::string detail;
};

/** Display name of an event kind. */
std::string_view healthEventName(HealthEvent::Kind kind);

/**
 * Tracks per-detector failure streaks and drives the
 * quarantine/probation/recovery state machine. The detection service
 * calls tick() once per drained batch, reports score outcomes, and
 * asks for the effective (renormalized) switching policy.
 */
class HealthMonitor
{
  public:
    HealthMonitor(std::size_t pool_size, const HealthConfig &config);

    /** Advance one epoch; promotes cooled-down detectors to probation. */
    void tick();

    /** Report a valid score from @p detector. */
    void recordSuccess(std::size_t detector);

    /**
     * Report a failed score (NaN, out of range, exception). @p why is
     * copied only when the failure quarantines the detector.
     */
    void recordFailure(std::size_t detector, std::string_view why);

    DetectorHealth health(std::size_t detector) const;

    /** Healthy or probation (i.e. eligible for selection). */
    bool available(std::size_t detector) const;

    /** Number of selectable detectors. */
    std::size_t availableCount() const;

    /** Detectors currently quarantined. */
    std::size_t quarantinedCount() const;

    /**
     * The switching policy restricted to available detectors and
     * renormalized. Unavailable error when every detector is
     * quarantined (the pool can no longer classify).
     */
    support::StatusOr<std::vector<double>>
    effectivePolicy(const std::vector<double> &base) const;

    /**
     * Structured log of health transitions (quarantine, probation,
     * recovery), in occurrence order. Failures that change no state
     * are counted (failureCount) but not logged, so the log grows
     * with transitions, not with traffic.
     */
    const std::vector<HealthEvent> &events() const { return events_; }

    /** Lifetime failure count of one detector. */
    std::size_t failureCount(std::size_t detector) const;

    std::uint64_t epoch() const { return epoch_; }

  private:
    struct DetectorState
    {
        DetectorHealth health = DetectorHealth::Healthy;
        std::size_t consecutiveFailures = 0;
        std::size_t probationStreak = 0;
        std::size_t totalFailures = 0;
        std::uint64_t quarantinedAt = 0;
    };

    void quarantine(std::size_t detector, std::string why);

    HealthConfig config_;
    std::vector<DetectorState> states_;
    std::vector<HealthEvent> events_;
    std::uint64_t epoch_ = 0;
};

} // namespace rhmd::runtime

#endif // RHMD_RUNTIME_HEALTH_HH

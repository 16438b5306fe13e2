/**
 * @file
 * Admission control for the detection service: per-tenant quotas,
 * fair-share under pressure, and a service-level circuit breaker.
 *
 * The queue-full/deadline shedding in DetectionService protects the
 * *service*; nothing protects tenants from each other, and nothing
 * stops clients from hammering a service that is already failing.
 * This layer adds both decisions at the admission boundary:
 *
 *  - TokenBucket / AdmissionController: each tenant draws from its
 *    own token bucket (rate + burst), and once the queue is past
 *    kFairShareWatermark, a tenant already holding more than its
 *    fair share of the queue is shed even if it has tokens — one
 *    noisy tenant cannot starve the rest.
 *
 *  - CircuitBreaker: a burst of failures or sheds opens the breaker;
 *    while open, requests are rejected immediately (no queueing work
 *    wasted on a service that cannot answer). After a cool-down the
 *    breaker half-opens and lets a few probes through; probe success
 *    closes it, probe failure re-opens it with a longer cool-down.
 *    The cool-down schedule *is* `support::RetryPolicy` — the same
 *    exponential-backoff discipline FaultInjector::sense() uses for
 *    sensor retries, applied to the whole service.
 *
 * All timing is virtual (seconds as doubles, supplied by the caller):
 * the service passes wall time, tests pass scripted instants, so the
 * state machines are unit-testable without sleeps.
 */

#ifndef RHMD_SERVE_ADMISSION_HH
#define RHMD_SERVE_ADMISSION_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>

#include "support/retry.hh"
#include "support/status.hh"

namespace rhmd::serve
{

/** One tenant's admission budget. */
struct TenantQuota
{
    /** Tokens refilled per (virtual) second. 0 = no refill. */
    double ratePerSecond = 64.0;

    /** Bucket capacity; buckets start full. Must be >= 1. */
    double burst = 16.0;
};

/** Classic token bucket over caller-supplied virtual time. */
class TokenBucket
{
  public:
    explicit TokenBucket(const TenantQuota &quota);

    /**
     * Refill up to @p now and take one token. False = quota
     * exhausted. @p now must be non-decreasing across calls; a
     * regression is clamped, never credited.
     */
    bool tryAcquire(double now);

  private:
    TenantQuota quota_;
    double tokens_;
    double lastRefill_ = 0.0;
    bool primed_ = false;
};

/**
 * Queue-depth fraction above which fair-share enforcement kicks in:
 * a tenant holding >= capacity / active-tenants queued requests is
 * shed until it drains, so the last quarter of the queue is kept
 * fair.
 */
constexpr double kFairShareWatermark = 0.75;

/** Admission-control knobs. */
struct AdmissionConfig
{
    /** Off by default: existing deployments admit on queue space alone. */
    bool enabled = false;

    /** The budget each tenant's own bucket starts from. */
    TenantQuota quota{};
};

/**
 * Per-tenant admission decisions. Thread-safe. Callers must pair
 * every admitted request with one release(tenant) when it leaves the
 * queue (served or shed downstream) so fair-share accounting tracks
 * actual queue occupancy.
 */
class AdmissionController
{
  public:
    AdmissionController(AdmissionConfig config,
                        std::size_t queue_capacity);

    /**
     * Decide one request from @p tenant at virtual time @p now with
     * the queue currently @p depth deep. Ok admits (and charges the
     * tenant); Unavailable names the reason (quota / fair share).
     */
    support::Status admit(std::uint64_t tenant, double now,
                          std::size_t depth);

    /** A previously admitted request left the queue. */
    void release(std::uint64_t tenant);

    /** Queued requests currently charged to @p tenant. */
    std::size_t outstanding(std::uint64_t tenant) const;

  private:
    struct TenantState
    {
        TokenBucket bucket;
        std::size_t outstanding = 0;

        explicit TenantState(const TenantQuota &quota) : bucket(quota)
        {
        }
    };

    TenantState &stateFor(std::uint64_t tenant);

    AdmissionConfig config_;
    std::size_t queueCapacity_;
    mutable std::mutex mutex_;
    std::map<std::uint64_t, TenantState> tenants_;
    std::size_t activeTenants_ = 0;
};

/** Probes a half-open breaker admits; all must succeed to close it. */
constexpr std::size_t kBreakerProbes = 2;

/** Circuit-breaker knobs. */
struct BreakerConfig
{
    /** Off by default. */
    bool enabled = false;

    /** Consecutive failures/sheds that open the breaker. */
    std::size_t failureThreshold = 8;

    /**
     * Cool-down schedule in virtual seconds: the Nth consecutive
     * open lasts backoffDelay(cooldown, N) — the retry layer's
     * exponential backoff applied to the whole service.
     */
    support::RetryPolicy cooldown{};
};

/**
 * Closed → (failure burst) → Open → (cool-down) → HalfOpen →
 * (probes pass) → Closed, or (probe fails) → Open with a longer
 * cool-down. Thread-safe; all transitions happen inside allow()/
 * record*() under one mutex. A disabled breaker allows everything
 * and records nothing, without taking the mutex.
 */
class CircuitBreaker
{
  public:
    enum class State : std::uint8_t
    {
        Closed,
        Open,
        HalfOpen,
    };

    explicit CircuitBreaker(BreakerConfig config);

    /**
     * May a request enter at virtual time @p now? Performs the
     * Open→HalfOpen transition when the cool-down has elapsed; while
     * half-open, admits up to kBreakerProbes probes.
     */
    bool allow(double now);

    /** An admitted request completed with a classification. */
    void recordSuccess(double now);

    /** An admitted request failed, or a request was shed. */
    void recordFailure(double now);

    State state() const;

    /** Times the breaker has opened over its lifetime. */
    std::size_t openCount() const;

  private:
    void open(double now);

    BreakerConfig config_;
    mutable std::mutex mutex_;
    State state_ = State::Closed;
    std::size_t consecutiveFailures_ = 0;
    std::size_t consecutiveOpens_ = 0;
    std::size_t lifetimeOpens_ = 0;
    std::size_t probesIssued_ = 0;
    std::size_t probeSuccesses_ = 0;
    double openedAt_ = 0.0;
    double cooldownSeconds_ = 0.0;
};

/** Display name ("closed", "open", "half-open"). */
std::string_view breakerStateName(CircuitBreaker::State state);

} // namespace rhmd::serve

#endif // RHMD_SERVE_ADMISSION_HH

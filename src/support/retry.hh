/**
 * @file
 * Retry-with-backoff for transiently failing operations.
 *
 * Sensor reads in a deployed HMD fail transiently (bus contention,
 * counter-read races); runtime::FaultInjector::sense() retries them
 * under an exponential backoff budget instead of losing the epoch
 * outright. Backoff time is virtual (accumulated in "units", e.g.
 * microseconds of modelled wait) so tests and the simulator stay
 * deterministic and fast.
 */

#ifndef RHMD_SUPPORT_RETRY_HH
#define RHMD_SUPPORT_RETRY_HH

#include <cstddef>
#include <type_traits>

#include "support/status.hh"

namespace rhmd::support
{

/** Growth factor of the backoff from one retry to the next. */
constexpr double kBackoffMultiplier = 2.0;

/** Cap on any one backoff, in virtual time units. */
constexpr double kMaxBackoff = 64.0;

/** Exponential-backoff retry parameters. */
struct RetryPolicy
{
    /** Total attempts, the first included. Must be >= 1. */
    std::size_t maxAttempts = 3;

    /** Backoff before the first retry, in virtual time units. */
    double initialBackoff = 1.0;
};

/**
 * Backoff before retry number @p retry (1-based): initialBackoff
 * times kBackoffMultiplier per earlier retry, capped at kMaxBackoff.
 */
double backoffDelay(const RetryPolicy &policy, std::size_t retry);

/** Bookkeeping a retried call reports back. */
struct RetryStats
{
    /** Retries performed (attempts - 1). */
    std::size_t retries = 0;

    /** Total virtual backoff waited. */
    double backoffSpent = 0.0;
};

/**
 * Run @p fn (returning StatusOr<T> or Status) until it succeeds, it
 * fails non-transiently, or the attempt budget is exhausted. Only
 * StatusCode::Unavailable is considered transient and retried; any
 * other error returns immediately. @p stats, when given, accumulates
 * retry counts and backoff across calls.
 */
template <typename Fn>
auto
retryWithBackoff(const RetryPolicy &policy, Fn &&fn,
                 RetryStats *stats = nullptr) -> decltype(fn())
{
    panic_if(policy.maxAttempts == 0, "RetryPolicy needs >= 1 attempt");
    for (std::size_t attempt = 1;; ++attempt) {
        auto result = fn();
        const Status &status = [&]() -> const Status & {
            if constexpr (std::is_same_v<decltype(fn()), Status>)
                return result;
            else
                return result.status();
        }();
        if (status.isOk() ||
            status.code() != StatusCode::Unavailable ||
            attempt >= policy.maxAttempts) {
            return result;
        }
        if (stats != nullptr) {
            ++stats->retries;
            stats->backoffSpent += backoffDelay(policy, attempt);
        }
    }
}

} // namespace rhmd::support

#endif // RHMD_SUPPORT_RETRY_HH

/**
 * @file
 * Backoff schedule implementation.
 */

#include "support/retry.hh"

#include <algorithm>
#include <cmath>

namespace rhmd::support
{

double
backoffDelay(const RetryPolicy &policy, std::size_t retry)
{
    panic_if(retry == 0, "retries are numbered from 1");
    const double raw =
        policy.initialBackoff *
        std::pow(kBackoffMultiplier, static_cast<double>(retry - 1));
    return std::min(raw, kMaxBackoff);
}

} // namespace rhmd::support

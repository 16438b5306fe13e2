/**
 * @file
 * Admission control implementation.
 */

#include "serve/admission.hh"

#include <algorithm>

#include "support/logging.hh"

namespace rhmd::serve
{

TokenBucket::TokenBucket(const TenantQuota &quota)
    : quota_(quota), tokens_(quota.burst)
{
    fatal_if(quota_.burst < 1.0, "token-bucket burst must be >= 1");
    fatal_if(quota_.ratePerSecond < 0.0,
             "token-bucket rate must be >= 0");
}

bool
TokenBucket::tryAcquire(double now)
{
    if (!primed_) {
        primed_ = true;
        lastRefill_ = now;
    }
    if (now > lastRefill_) {
        tokens_ = std::min(quota_.burst,
                           tokens_ + (now - lastRefill_) *
                                         quota_.ratePerSecond);
        lastRefill_ = now;
    }
    if (tokens_ < 1.0)
        return false;
    tokens_ -= 1.0;
    return true;
}

AdmissionController::AdmissionController(AdmissionConfig config,
                                         std::size_t queue_capacity)
    : config_(std::move(config)), queueCapacity_(queue_capacity)
{
    fatal_if(queueCapacity_ == 0,
             "AdmissionController needs a positive queue capacity");
}

AdmissionController::TenantState &
AdmissionController::stateFor(std::uint64_t tenant)
{
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        it = tenants_.emplace(tenant, TenantState(config_.quota)).first;
    return it->second;
}

support::Status
AdmissionController::admit(std::uint64_t tenant, double now,
                           std::size_t depth)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    TenantState &state = stateFor(tenant);
    if (!state.bucket.tryAcquire(now)) {
        return support::unavailableError(
            "tenant ", tenant, " quota exhausted; retry later");
    }
    // Fair share only bites under pressure: past the watermark, a
    // tenant already holding its slice of the queue yields to the
    // others (the token is deliberately spent — a tenant flooding a
    // congested queue drains its burst instead of winning the race
    // the moment pressure drops).
    if (static_cast<double>(depth) >=
        kFairShareWatermark * static_cast<double>(queueCapacity_)) {
        const std::size_t sharers = std::max<std::size_t>(
            1, activeTenants_ + (state.outstanding == 0 ? 1 : 0));
        const std::size_t share =
            std::max<std::size_t>(1, queueCapacity_ / sharers);
        if (state.outstanding >= share) {
            return support::unavailableError(
                "tenant ", tenant, " over fair share (",
                state.outstanding, " of ", share,
                " queued) under pressure; retry later");
        }
    }
    if (state.outstanding == 0)
        ++activeTenants_;
    ++state.outstanding;
    return support::Status();
}

void
AdmissionController::release(std::uint64_t tenant)
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(tenant);
    panic_if(it == tenants_.end() || it->second.outstanding == 0,
             "release() without a matching admit for tenant ", tenant);
    if (--it->second.outstanding == 0)
        --activeTenants_;
}

std::size_t
AdmissionController::outstanding(std::uint64_t tenant) const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = tenants_.find(tenant);
    return it == tenants_.end() ? 0 : it->second.outstanding;
}

CircuitBreaker::CircuitBreaker(BreakerConfig config) : config_(config)
{
    fatal_if(config_.failureThreshold == 0,
             "breaker failure threshold must be positive");
}

void
CircuitBreaker::open(double now)
{
    state_ = State::Open;
    openedAt_ = now;
    ++lifetimeOpens_;
    ++consecutiveOpens_;
    // The retry layer caps the delay growth; reuse its schedule so
    // a flapping service backs off service-wide exactly as a flaky
    // sensor read does.
    cooldownSeconds_ = support::backoffDelay(
        config_.cooldown,
        std::min(consecutiveOpens_, config_.cooldown.maxAttempts));
    consecutiveFailures_ = 0;
    probesIssued_ = 0;
    probeSuccesses_ = 0;
}

bool
CircuitBreaker::allow(double now)
{
    if (!config_.enabled)
        return true;
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
      case State::Closed:
        return true;
      case State::Open:
        if (now - openedAt_ < cooldownSeconds_)
            return false;
        state_ = State::HalfOpen;
        probesIssued_ = 0;
        probeSuccesses_ = 0;
        [[fallthrough]];
      case State::HalfOpen:
        if (probesIssued_ >= kBreakerProbes)
            return false;
        ++probesIssued_;
        return true;
    }
    rhmd_panic("bad breaker state");
}

void
CircuitBreaker::recordSuccess(double now)
{
    (void)now;
    if (!config_.enabled)
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
      case State::Closed:
        consecutiveFailures_ = 0;
        return;
      case State::HalfOpen:
        if (++probeSuccesses_ >= kBreakerProbes) {
            state_ = State::Closed;
            consecutiveFailures_ = 0;
            consecutiveOpens_ = 0;
        }
        return;
      case State::Open:
        // A request admitted before the breaker opened resolved late;
        // it says nothing about the service now.
        return;
    }
    rhmd_panic("bad breaker state");
}

void
CircuitBreaker::recordFailure(double now)
{
    if (!config_.enabled)
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    switch (state_) {
      case State::Closed:
        if (++consecutiveFailures_ >= config_.failureThreshold)
            open(now);
        return;
      case State::HalfOpen:
        // The probe failed: the service is still sick. Re-open with
        // the next (longer) cool-down.
        open(now);
        return;
      case State::Open:
        return;
    }
    rhmd_panic("bad breaker state");
}

CircuitBreaker::State
CircuitBreaker::state() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return state_;
}

std::size_t
CircuitBreaker::openCount() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    return lifetimeOpens_;
}

std::string_view
breakerStateName(CircuitBreaker::State state)
{
    switch (state) {
      case CircuitBreaker::State::Closed: return "closed";
      case CircuitBreaker::State::Open: return "open";
      case CircuitBreaker::State::HalfOpen: return "half-open";
    }
    rhmd_panic("bad breaker state");
}

} // namespace rhmd::serve

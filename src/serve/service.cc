/**
 * @file
 * Batched detection service implementation.
 */

#include "serve/service.hh"

#include <cmath>

#include "core/rhmd.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"

namespace rhmd::serve
{

namespace
{

bool
validScore(double score)
{
    return std::isfinite(score) && score >= 0.0 && score <= 1.0;
}

// Deterministic serve metrics count request outcomes, which with a
// healthy pool and no shedding depend only on (seed, keys, programs,
// pool version); everything shaped by scheduling or overload — batch
// composition, queue depth, shedding, quarantine fallout — is Timing
// and stripped before determinism diffs.

struct ServeCounters
{
    support::Counter &requests = support::metrics().counter(
        "serve.requests", "requests submitted to the detection service");
    support::Counter &responses = support::metrics().counter(
        "serve.responses", "requests answered with a classification");
    support::Counter &malwareFlagged = support::metrics().counter(
        "serve.malware_flagged",
        "served requests whose program decision was malware");
    support::Counter &detectorFailures = support::metrics().counter(
        "serve.detector_failures",
        "invalid detector scores failed over while serving");
    support::Counter &shedQueueFull = support::metrics().counter(
        "serve.shed_queue_full",
        "requests shed at submit because the queue was full",
        support::MetricDomain::Timing);
    support::Counter &shedDeadline = support::metrics().counter(
        "serve.shed_deadline",
        "requests shed at batch pop after exceeding the queueing "
        "deadline",
        support::MetricDomain::Timing);
    support::Counter &shedDeadlineSubmit = support::metrics().counter(
        "serve.shed_deadline_submit",
        "expired requests evicted from a full queue at submit to make "
        "room for live work",
        support::MetricDomain::Timing);
    support::Counter &shedStopped = support::metrics().counter(
        "serve.shed_stopped",
        "requests shed because the service was stopped",
        support::MetricDomain::Timing);
    support::Counter &shedQuota = support::metrics().counter(
        "serve.shed_quota",
        "requests shed by tenant quota or fair-share admission",
        support::MetricDomain::Timing);
    support::Counter &shedCircuitOpen = support::metrics().counter(
        "serve.shed_circuit_open",
        "requests shed while the circuit breaker was open",
        support::MetricDomain::Timing);
    support::Counter &failOpen = support::metrics().counter(
        "serve.fail_open",
        "degraded fail-open answers while the pool was quarantined",
        support::MetricDomain::Timing);
    support::Counter &failClosed = support::metrics().counter(
        "serve.fail_closed",
        "fail-closed rejections while the pool was quarantined",
        support::MetricDomain::Timing);
    support::Counter &batches = support::metrics().counter(
        "serve.batches", "batches drained from the request queue",
        support::MetricDomain::Timing);
    support::Histogram &batchSize = support::metrics().histogram(
        "serve.batch_size", "requests per drained batch",
        {1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0},
        support::MetricDomain::Timing);
    support::Gauge &queueDepthPeak = support::metrics().gauge(
        "serve.queue_depth_peak", "maximum observed request-queue depth",
        support::MetricDomain::Timing);
};

ServeCounters &
serveCounters()
{
    static ServeCounters counters;
    return counters;
}

} // namespace

DetectionService::DetectionService(std::shared_ptr<const core::Rhmd> pool,
                                   ServeConfig config)
    : config_(std::move(config)), switchRng_(config_.seed),
      failoverRng_(config_.seed ^ 0xfa170f32c001d00dULL),
      pools_(std::move(pool), config_.health, config_.gate),
      admission_(config_.admission,
                 config_.queueCapacity == 0 ? 1 : config_.queueCapacity),
      breaker_(config_.breaker), chaos_(config_.chaos),
      queue_(config_.queueCapacity == 0 ? 1 : config_.queueCapacity),
      started_(std::chrono::steady_clock::now())
{
    fatal_if(config_.maxBatch == 0,
             "DetectionService maxBatch must be > 0");
    fatal_if(config_.queueCapacity == 0,
             "DetectionService queueCapacity must be > 0");

    const std::size_t n_workers =
        support::resolveThreadCount(config_.workers);
    workers_.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w)
        workers_.emplace_back([this] { workerLoop(); });
}

DetectionService::DetectionService(const core::Rhmd &pool,
                                   ServeConfig config)
    : DetectionService(std::shared_ptr<const core::Rhmd>(
                           &pool, [](const core::Rhmd *) {}),
                       std::move(config))
{
}

DetectionService::~DetectionService()
{
    stop();
}

double
DetectionService::nowSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - started_)
        .count();
}

std::future<support::StatusOr<ServeReport>>
DetectionService::submit(const features::ProgramFeatures &prog,
                         std::uint64_t request_key, std::uint64_t tenant)
{
    ServeCounters &counters = serveCounters();
    counters.requests.add(1);

    Request req;
    req.prog = &prog;
    req.key = request_key;
    req.tenant = tenant;
    req.enqueued = std::chrono::steady_clock::now();
    std::future<support::StatusOr<ServeReport>> future =
        req.promise.get_future();

    // Admission layers, cheapest first: a stopped service and an open
    // breaker shed before any quota or queue work is spent.
    if (stopped_.load(std::memory_order_acquire)) {
        counters.shedStopped.add(1);
        req.promise.set_value(support::unavailableError(
            "detection service stopped; request shed"));
        return future;
    }
    const double now_s = nowSeconds();
    if (config_.breaker.enabled && !breaker_.allow(now_s)) {
        counters.shedCircuitOpen.add(1);
        req.promise.set_value(support::unavailableError(
            "detection service circuit breaker ",
            breakerStateName(breaker_.state()),
            "; retry after the cool-down"));
        return future;
    }
    if (config_.admission.enabled) {
        support::Status admitted =
            admission_.admit(tenant, now_s, queue_.size());
        if (!admitted.isOk()) {
            counters.shedQuota.add(1);
            req.promise.set_value(std::move(admitted));
            return future;
        }
        req.admitted = true;
    }

    // A full queue first reclaims dead capacity: requests whose wait
    // already blew the deadline can never be answered in budget, so
    // they are evicted (and shed under their own counter) instead of
    // letting a live request bounce off capacity they occupy.
    std::size_t depth = 0;
    bool pushed = false;
    std::vector<Request> evicted;
    if (config_.deadlineSeconds > 0.0) {
        const auto now = std::chrono::steady_clock::now();
        pushed = queue_.tryPushEvicting(
            std::move(req),
            [&](const Request &queued) {
                return std::chrono::duration<double>(now -
                                                     queued.enqueued)
                           .count() > config_.deadlineSeconds;
            },
            evicted, &depth);
        for (Request &dead : evicted) {
            if (dead.admitted)
                admission_.release(dead.tenant);
            counters.shedDeadlineSubmit.add(1);
            if (config_.breaker.enabled)
                breaker_.recordFailure(now_s);
            dead.promise.set_value(support::unavailableError(
                "request shed: queue wait exceeded the ",
                config_.deadlineSeconds, "s deadline"));
        }
    } else {
        pushed = queue_.tryPush(std::move(req), &depth);
    }
    if (!pushed) {
        // A failed push never moves from its argument, so the
        // promise is still ours to fulfill — and the admission charge
        // is ours to return.
        if (req.admitted)
            admission_.release(tenant);
        if (queue_.closed()) {
            // stop() raced ahead of the stopped_ check above: this is
            // shutdown shedding, not overload, and dashboards must be
            // able to tell them apart.
            counters.shedStopped.add(1);
            req.promise.set_value(support::unavailableError(
                "detection service stopped; request shed"));
            return future;
        }
        counters.shedQueueFull.add(1);
        if (config_.breaker.enabled)
            breaker_.recordFailure(now_s);
        req.promise.set_value(support::unavailableError(
            "detection service overloaded (queue of ",
            queue_.capacity(), " full); retry later"));
        return future;
    }
    counters.queueDepthPeak.updateMax(static_cast<double>(depth));
    return future;
}

support::StatusOr<std::uint64_t>
DetectionService::swapPool(std::shared_ptr<const core::Rhmd> candidate)
{
    return pools_.swapPool(std::move(candidate));
}

runtime::HealthMonitor
DetectionService::healthSnapshot() const
{
    const std::shared_ptr<PoolState> state = pools_.current();
    const std::lock_guard<std::mutex> lock(state->healthMutex);
    return state->health;
}

support::Status
DetectionService::installShadow(
    std::shared_ptr<const core::Rhmd> candidate)
{
    if (candidate == nullptr)
        return support::invalidArgumentError(
            "installShadow needs a candidate pool");
    const support::Status valid = candidate->validate();
    if (!valid.isOk())
        return support::failedPreconditionError(
            "shadow candidate rejected: ", valid.toString());
    const std::lock_guard<std::mutex> lock(shadowMutex_);
    shadow_ = std::move(candidate);
    shadowStats_ = ShadowStats{};
    return support::Status();
}

void
DetectionService::clearShadow()
{
    const std::lock_guard<std::mutex> lock(shadowMutex_);
    shadow_.reset();
}

bool
DetectionService::shadowActive() const
{
    const std::lock_guard<std::mutex> lock(shadowMutex_);
    return shadow_ != nullptr;
}

ShadowStats
DetectionService::shadowStats() const
{
    const std::lock_guard<std::mutex> lock(shadowMutex_);
    return shadowStats_;
}

void
DetectionService::stop()
{
    {
        const std::lock_guard<std::mutex> lock(stopMutex_);
        if (stopped_.load(std::memory_order_relaxed))
            return;
        stopped_.store(true, std::memory_order_release);
    }
    queue_.close();
    for (std::thread &worker : workers_)
        worker.join();
    workers_.clear();
}

void
DetectionService::workerLoop()
{
    std::vector<Request> batch;
    while (queue_.popBatch(batch, config_.maxBatch) > 0) {
        // Pop-boundary deadline shed: expired requests leave before
        // any batch is planned, so a batch of stale work costs no
        // scoring and an all-expired pop plans nothing at all.
        shedExpired(batch);
        if (batch.empty())
            continue;
        chaos_.maybeStallWorker();
        processBatch(batch);
    }
}

void
DetectionService::shedExpired(std::vector<Request> &batch)
{
    if (config_.deadlineSeconds <= 0.0)
        return;
    ServeCounters &counters = serveCounters();
    const double now_s = nowSeconds();
    const auto now = std::chrono::steady_clock::now();
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        Request &req = batch[i];
        const double waited =
            std::chrono::duration<double>(now - req.enqueued).count();
        if (waited > config_.deadlineSeconds) {
            if (req.admitted)
                admission_.release(req.tenant);
            counters.shedDeadline.add(1);
            if (config_.breaker.enabled)
                breaker_.recordFailure(now_s);
            req.promise.set_value(support::unavailableError(
                "request shed after queueing ", waited, "s (deadline ",
                config_.deadlineSeconds, "s)"));
            continue;
        }
        if (kept != i)
            batch[kept] = std::move(req);
        ++kept;
    }
    batch.resize(kept);
}

void
DetectionService::processBatch(std::vector<Request> &batch)
{
    ServeCounters &counters = serveCounters();
    const double now_s = nowSeconds();

    // Every admitted request has left the queue: return its admission
    // charge before anything else so fair-share accounting tracks
    // real queue occupancy. (Expired requests already returned theirs
    // in shedExpired; the batch here is live work only.)
    if (config_.admission.enabled) {
        for (const Request &req : batch) {
            if (req.admitted)
                admission_.release(req.tenant);
        }
    }

    // Pool snapshot: the RCU epoch of this batch. Everything below
    // reads this version — a swapPool() landing mid-batch is invisible
    // here and the old version reclaims when the last holder drops it.
    const std::shared_ptr<PoolState> state = pools_.current();
    const core::Rhmd &pool = *state->pool;

    // A program whose windows this snapshot cannot plan is the
    // caller's error, not the service's: it is answered here and
    // leaves the batch without touching health or the breaker.
    std::vector<Request *> live;
    live.reserve(batch.size());
    for (Request &req : batch) {
        support::Status shape = core::checkEpochWindows(
            *req.prog, pool.detectors(), pool.decisionPeriod());
        if (!shape.isOk()) {
            req.promise.set_value(std::move(shape));
            continue;
        }
        live.push_back(&req);
    }
    if (live.empty())
        return;

    counters.batches.add(1);
    counters.batchSize.observe(static_cast<double>(live.size()));
    chaos_.batchPlanned(state->version);
    chaos_.maybeDelayBatch();

    // One health epoch per drained batch; snapshot the effective
    // policy once so every request in the batch plans against the
    // same pool view.
    support::StatusOr<std::vector<double>> effective =
        support::unavailableError("unset");
    {
        const std::lock_guard<std::mutex> lock(state->healthMutex);
        state->health.tick();
        effective = state->health.effectivePolicy(pool.policy());
    }
    if (!effective.isOk()) {
        // The whole snapshot is quarantined: the configured
        // fail-open/fail-closed decision, not an accident of which
        // worker got here first.
        for (Request *req : live) {
            if (config_.failOpen) {
                counters.failOpen.add(1);
                ServeReport report;
                report.poolVersion = state->version;
                report.degraded = true;
                report.epochs =
                    req->prog->windows(pool.decisionPeriod()).size();
                report.programDecision = 0;
                req->promise.set_value(std::move(report));
                continue;
            }
            counters.failClosed.add(1);
            if (config_.breaker.enabled)
                breaker_.recordFailure(now_s);
            req->promise.set_value(effective.status());
        }
        return;
    }
    const std::vector<double> &policy = *effective;

    // Phase 1 — plan: each request draws its switching stream from
    // (seed, key) alone, so the picks do not depend on batch
    // composition or worker interleaving. The plan's slots are
    // indices into live.
    const std::uint32_t epoch_len = pool.decisionPeriod();
    core::EpochPlan plan(pool.detectors(), epoch_len);
    // Per live request: per-epoch decision, -1 while unclassified.
    std::vector<std::vector<int>> decided(live.size());
    std::vector<std::size_t> failures(live.size(), 0);
    // Summed |score - threshold| over classified epochs (the margin
    // signal behind ServeReport::meanMargin).
    std::vector<double> marginSum(live.size(), 0.0);

    for (std::size_t r = 0; r < live.size(); ++r) {
        Rng rng = switchRng_.at(live[r]->key);
        decided[r].assign(
            plan.draw(*live[r]->prog,
                      [&rng, &policy] { return rng.weightedIndex(policy); }),
            -1);
    }

    // Phase 2 — score: one batch pass per selected detector. Invalid
    // scores — organic or chaos-injected — are reported to the health
    // monitor and their slots fall through to the serial failover
    // pass below.
    std::vector<core::EpochPlan::Slot> failed;
    plan.score([&](std::size_t d,
                   const std::vector<core::EpochPlan::Slot> &slots,
                   const std::vector<double> &scores) {
        const double threshold = pool.detectors()[d]->threshold();
        std::size_t valid = 0;
        for (std::size_t i = 0; i < scores.size(); ++i) {
            const core::EpochPlan::Slot &slot = slots[i];
            if (chaos_.scoreFault(live[slot.prog]->key, slot.epoch, d) ||
                !validScore(scores[i])) {
                ++failures[slot.prog];
                counters.detectorFailures.add(1);
                failed.push_back(slot);
                continue;
            }
            ++valid;
            decided[slot.prog][slot.epoch] = scores[i] >= threshold ? 1 : 0;
            marginSum[slot.prog] += std::abs(scores[i] - threshold);
        }
        const std::lock_guard<std::mutex> lock(state->healthMutex);
        for (std::size_t i = 0; i < valid; ++i)
            state->health.recordSuccess(d);
        for (std::size_t i = valid; i < scores.size(); ++i)
            state->health.recordFailure(
                d, rhmd::detail::concat("invalid score at epoch ",
                                        state->health.epoch()));
    });

    // Phase 3 — failover: redraw each failed slot from its own
    // (key, epoch)-derived stream (order-independent) against the
    // current effective policy, up to the hard-capped attempt budget
    // (see failoverBudget). A slot that exhausts the budget stays
    // unclassified.
    const std::size_t max_attempts = runtime::failoverBudget(
        pool.poolSize(), config_.health.failureThreshold);
    for (const core::EpochPlan::Slot &f : failed) {
        const features::ProgramFeatures &prog = *live[f.prog]->prog;
        const std::uint64_t key = live[f.prog]->key;
        Rng rng = SplitRng(failoverRng_.seedAt(key)).at(f.epoch);
        for (std::size_t attempt = 0; attempt < max_attempts;
             ++attempt) {
            support::StatusOr<std::vector<double>> pol =
                support::unavailableError("unset");
            {
                const std::lock_guard<std::mutex> lock(
                    state->healthMutex);
                pol = state->health.effectivePolicy(pool.policy());
            }
            if (!pol.isOk())
                break;
            const std::size_t pick = rng.weightedIndex(*pol);
            const core::Hmd &det = *pool.detectors()[pick];
            const double score = det.windowScore(
                core::requireEpochWindow(prog, epoch_len, det, f.epoch));
            const bool faulted =
                chaos_.scoreFault(key, f.epoch, pick) ||
                !validScore(score);
            const std::lock_guard<std::mutex> lock(state->healthMutex);
            if (faulted) {
                ++failures[f.prog];
                counters.detectorFailures.add(1);
                state->health.recordFailure(
                    pick,
                    rhmd::detail::concat("invalid failover score ",
                                         score));
                continue;
            }
            state->health.recordSuccess(pick);
            decided[f.prog][f.epoch] =
                score >= det.threshold() ? 1 : 0;
            marginSum[f.prog] += std::abs(score - det.threshold());
            break;
        }
    }

    // Phase 4 — fulfill: compact each request's classified epochs
    // into its report, majority-vote the program decision, stamp the
    // pool version the batch was planned against. When a shadow
    // candidate is installed, each classified request is scored
    // against it first (the submitted program is only guaranteed
    // alive until its promise resolves).
    std::shared_ptr<const core::Rhmd> shadow;
    {
        const std::lock_guard<std::mutex> lock(shadowMutex_);
        shadow = shadow_;
    }
    for (std::size_t r = 0; r < live.size(); ++r) {
        ServeReport report;
        report.epochs = decided[r].size();
        report.detectorFailures = failures[r];
        report.poolVersion = state->version;
        for (int d : decided[r]) {
            if (d >= 0)
                report.decisions.push_back(d);
        }
        report.classified = report.decisions.size();
        if (report.decisions.empty()) {
            if (config_.breaker.enabled)
                breaker_.recordFailure(now_s);
            live[r]->promise.set_value(support::unavailableError(
                "no epoch of '", live[r]->prog->name,
                "' could be classified (", report.epochs, " epochs, ",
                report.detectorFailures, " detector failures)"));
            continue;
        }
        report.programDecision = core::majorityVote(report.decisions);
        report.meanMargin =
            marginSum[r] / static_cast<double>(report.classified);
        counters.responses.add(1);
        if (report.programDecision == 1)
            counters.malwareFlagged.add(1);
        if (config_.breaker.enabled)
            breaker_.recordSuccess(now_s);
        if (shadow != nullptr)
            shadowScore(*live[r]->prog, live[r]->key,
                        report.programDecision, *shadow);
        live[r]->promise.set_value(std::move(report));
    }
}

void
DetectionService::shadowScore(const features::ProgramFeatures &prog,
                              std::uint64_t key, int live_decision,
                              const core::Rhmd &candidate)
{
    if (!core::checkEpochWindows(prog, candidate.detectors(),
                                 candidate.decisionPeriod())
             .isOk())
        return;
    // Same per-key stream derivation as the live plan, so the shadow
    // verdict for a key is a pure function of (service seed, key,
    // candidate) — independent of batch composition and of the live
    // pool version the request happened to be served by.
    Rng rng = switchRng_.at(key);
    core::EpochPlan plan(candidate.detectors(), candidate.decisionPeriod());
    // Per-epoch margins, 0 where the score was invalid, summed in
    // epoch order below.
    std::vector<double> margins(plan.draw(prog, [&rng, &candidate] {
        return rng.weightedIndex(candidate.policy());
    }));
    std::size_t malware_votes = 0;
    std::size_t classified = 0;
    plan.score([&](std::size_t d,
                   const std::vector<core::EpochPlan::Slot> &slots,
                   const std::vector<double> &scores) {
        const double threshold = candidate.detectors()[d]->threshold();
        for (std::size_t i = 0; i < scores.size(); ++i) {
            if (!validScore(scores[i]))
                continue;
            ++classified;
            malware_votes += scores[i] >= threshold ? 1 : 0;
            margins[slots[i].epoch] = std::abs(scores[i] - threshold);
        }
    });
    double margin_sum = 0.0;
    for (double margin : margins)
        margin_sum += margin;
    const int shadow_decision = core::majorityVote(malware_votes, classified);
    const std::lock_guard<std::mutex> lock(shadowMutex_);
    shadowStats_.requests += 1;
    shadowStats_.agreements += shadow_decision == live_decision ? 1 : 0;
    shadowStats_.shadowMalware +=
        static_cast<std::size_t>(shadow_decision);
    shadowStats_.liveMalware +=
        static_cast<std::size_t>(live_decision);
    shadowStats_.marginSum +=
        classified > 0 ? margin_sum / static_cast<double>(classified)
                       : 0.0;
}

} // namespace rhmd::serve

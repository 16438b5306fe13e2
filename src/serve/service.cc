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

double
secondsBetween(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** A per-batch phase histogram: 1 us to 1 s in 1-2.5-5 steps. */
support::Histogram &
phaseHistogram(const std::string &name, const std::string &help)
{
    return support::metrics().histogram(
        name, help,
        {1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3,
         2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0},
        support::MetricDomain::Timing);
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
    // Where a batch's time went, observed once per batch: the oldest
    // popped request's queue wait, then the phases of a batch that
    // reaches planning.
    support::Histogram &queueWaitSeconds = phaseHistogram(
        "serve.queue_wait_seconds",
        "queue wait of each popped batch's oldest request");
    support::Histogram &planSeconds = phaseHistogram(
        "serve.plan_seconds",
        "per-batch shape check, health tick and switching draws");
    support::Histogram &scoreSeconds = phaseHistogram(
        "serve.score_seconds", "per-batch scoring and failover");
    support::Histogram &fulfillSeconds = phaseHistogram(
        "serve.fulfill_seconds",
        "per-batch reports, shadow scoring and promise resolution");
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
    return secondsBetween(started_, std::chrono::steady_clock::now());
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
    if (!breaker_.allow(now_s)) {
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
                return secondsBetween(queued.enqueued, now) >
                       config_.deadlineSeconds;
            },
            evicted, &depth);
        for (Request &dead : evicted) {
            if (config_.admission.enabled)
                admission_.release(dead.tenant);
            counters.shedDeadlineSubmit.add(1);
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
        if (config_.admission.enabled)
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
    BatchScratch scratch;
    while (queue_.popBatch(batch, config_.maxBatch) > 0) {
        serveCounters().queueWaitSeconds.observe(secondsBetween(
            batch.front().enqueued, std::chrono::steady_clock::now()));
        // Pop-boundary deadline shed: expired requests leave before
        // any batch is planned, so a batch of stale work costs no
        // scoring and an all-expired pop plans nothing at all.
        shedExpired(batch);
        if (batch.empty())
            continue;
        chaos_.maybeStallWorker();
        processBatch(batch, scratch);
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
        const double waited = secondsBetween(req.enqueued, now);
        if (waited > config_.deadlineSeconds) {
            if (config_.admission.enabled)
                admission_.release(req.tenant);
            counters.shedDeadline.add(1);
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
DetectionService::processBatch(std::vector<Request> &batch,
                               BatchScratch &scratch)
{
    ServeCounters &counters = serveCounters();
    const auto started = std::chrono::steady_clock::now();
    const double now_s = secondsBetween(started_, started);

    // Every admitted request has left the queue: return its admission
    // charge before anything else so fair-share accounting tracks
    // real queue occupancy. (Expired requests already returned theirs
    // in shedExpired; the batch here is live work only.)
    if (config_.admission.enabled) {
        for (const Request &req : batch)
            admission_.release(req.tenant);
    }

    // Pool snapshot: the RCU epoch of this batch. Everything below
    // reads this version — a swapPool() landing mid-batch is invisible
    // here and the old version reclaims when the last holder drops it.
    const std::shared_ptr<PoolState> state = pools_.current();
    const core::Rhmd &pool = *state->pool;

    // A program whose windows this snapshot cannot plan is the
    // caller's error, not the service's: it is answered here and
    // leaves the batch without touching health or the breaker.
    std::vector<Request *> &live = scratch.live;
    live.clear();
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
            breaker_.recordFailure(now_s);
            req->promise.set_value(effective.status());
        }
        return;
    }
    const std::vector<double> &policy = *effective;

    // Phase 1 — plan: each request draws its switching stream from
    // (seed, key) alone, so the picks do not depend on batch
    // composition or worker interleaving. The plan's slots are
    // indices into live, and request r's epochs are the decisions
    // from offsets[r] on.
    const std::uint32_t epoch_len = pool.decisionPeriod();
    core::EpochPlan &plan = scratch.plan;
    plan.reset(pool.detectors(), epoch_len);
    std::vector<std::size_t> &offsets = scratch.offsets;
    offsets.assign(1, 0);
    for (Request *req : live) {
        Rng rng = switchRng_.at(req->key);
        offsets.push_back(
            offsets.back() +
            plan.draw(*req->prog,
                      [&rng, &policy] { return rng.weightedIndex(policy); }));
    }
    std::vector<int> &decided = scratch.decided;
    decided.assign(offsets.back(), -1);
    std::vector<std::size_t> &failures = scratch.failures;
    failures.assign(live.size(), 0);
    std::vector<double> &marginSum = scratch.marginSum;
    marginSum.assign(live.size(), 0.0);
    const auto planned = std::chrono::steady_clock::now();
    counters.planSeconds.observe(secondsBetween(started, planned));

    // Phase 2 — score: one batch pass per selected detector. Invalid
    // scores — organic or chaos-injected — are reported to the health
    // monitor and their slots fall through to the serial failover
    // pass below.
    std::vector<core::EpochPlan::Slot> &failed = scratch.failed;
    failed.clear();
    plan.score([&](std::size_t d,
                   const std::vector<core::EpochPlan::Slot> &slots,
                   const std::vector<double> &scores) {
        const core::Hmd &det = *pool.detectors()[d];
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
            decided[offsets[slot.prog] + slot.epoch] =
                det.decision(scores[i]);
            marginSum[slot.prog] += std::abs(scores[i] - det.threshold());
        }
        const std::lock_guard<std::mutex> lock(state->healthMutex);
        for (std::size_t i = 0; i < valid; ++i)
            state->health.recordSuccess(d);
        for (std::size_t i = valid; i < scores.size(); ++i)
            state->health.recordFailure(d, "invalid score");
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
                state->health.recordFailure(pick,
                                            "invalid failover score");
                continue;
            }
            state->health.recordSuccess(pick);
            decided[offsets[f.prog] + f.epoch] = det.decision(score);
            marginSum[f.prog] += std::abs(score - det.threshold());
            break;
        }
    }
    const auto scored = std::chrono::steady_clock::now();
    counters.scoreSeconds.observe(secondsBetween(planned, scored));

    // Phase 4 — fulfill: compact each request's classified epochs
    // into its report, majority-vote the program decision, stamp the
    // pool version the batch was planned against. When a shadow
    // candidate is installed, each classified request is scored
    // against it too (the submitted program is only guaranteed alive
    // until its promise resolves). Only once every answer is built
    // are the promises resolved, back to back in request order, so a
    // client waiting on the batch is woken once rather than between
    // reports.
    std::shared_ptr<const core::Rhmd> shadow;
    {
        const std::lock_guard<std::mutex> lock(shadowMutex_);
        shadow = shadow_;
    }
    std::vector<support::StatusOr<ServeReport>> &answers = scratch.answers;
    answers.clear();
    for (std::size_t r = 0; r < live.size(); ++r) {
        ServeReport report;
        report.epochs = offsets[r + 1] - offsets[r];
        report.detectorFailures = failures[r];
        report.poolVersion = state->version;
        report.decisions.reserve(report.epochs);
        for (std::size_t e = offsets[r]; e < offsets[r + 1]; ++e) {
            if (decided[e] >= 0)
                report.decisions.push_back(decided[e]);
        }
        report.classified = report.decisions.size();
        if (report.decisions.empty()) {
            breaker_.recordFailure(now_s);
            answers.emplace_back(support::unavailableError(
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
        breaker_.recordSuccess(now_s);
        if (shadow != nullptr)
            shadowScore(*live[r]->prog, live[r]->key,
                        report.programDecision, *shadow);
        answers.emplace_back(std::move(report));
    }
    for (std::size_t r = 0; r < live.size(); ++r)
        live[r]->promise.set_value(std::move(answers[r]));
    counters.fulfillSeconds.observe(
        secondsBetween(scored, std::chrono::steady_clock::now()));
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
    plan.draw(prog, [&rng, &candidate] {
        return rng.weightedIndex(candidate.policy());
    });
    std::size_t malware_votes = 0;
    std::size_t classified = 0;
    plan.score([&](std::size_t d,
                   const std::vector<core::EpochPlan::Slot> &,
                   const std::vector<double> &scores) {
        const core::Hmd &det = *candidate.detectors()[d];
        for (const double score : scores) {
            if (!validScore(score))
                continue;
            ++classified;
            malware_votes += det.decision(score);
        }
    });
    const int shadow_decision = core::majorityVote(malware_votes, classified);
    const std::lock_guard<std::mutex> lock(shadowMutex_);
    shadowStats_.requests += 1;
    shadowStats_.agreements += shadow_decision == live_decision ? 1 : 0;
    shadowStats_.shadowMalware +=
        static_cast<std::size_t>(shadow_decision);
    shadowStats_.liveMalware +=
        static_cast<std::size_t>(live_decision);
}

} // namespace rhmd::serve

/**
 * @file
 * Tests of the serving robustness layer: zero-downtime pool hot-swap
 * (versioned snapshots, PAC-gated promotion), admission control
 * (token buckets, fair share, circuit breaker), degradation under
 * failing detectors (quarantine, the capped failover budget,
 * fail-open/fail-closed), and keyed-deterministic chaos injection.
 *
 * The central contract under test is the determinism domain of
 * DESIGN.md section 12: an admitted request's decisions are a pure
 * function of (service seed, request key, pool version) — independent
 * of worker count, batch composition, swap timing, and active chaos.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/pac.hh"
#include "core/rhmd.hh"
#include "serve/admission.hh"
#include "serve/chaos.hh"
#include "serve/pool_manager.hh"
#include "serve/service.hh"
#include "support/metrics.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::serve;

const core::Experiment &
sharedExperiment()
{
    static const core::Experiment exp = [] {
        core::ExperimentConfig config;
        config.benignCount = 12;
        config.malwareCount = 24;
        config.periods = {5000, 10000};
        config.traceInsts = 60000;
        config.seed = 77;
        return core::Experiment::build(config);
    }();
    return exp;
}

std::shared_ptr<const core::Rhmd>
threeDetectorPool(std::uint64_t seed = 5)
{
    const core::Experiment &exp = sharedExperiment();
    std::vector<features::FeatureSpec> specs(3);
    specs[0].kind = features::FeatureKind::Instructions;
    specs[0].period = 10000;
    specs[1].kind = features::FeatureKind::Memory;
    specs[1].period = 10000;
    specs[2].kind = features::FeatureKind::Architectural;
    specs[2].period = 5000;
    return core::buildRhmd("LR", specs, exp.corpus(),
                           exp.split().victimTrain, 16, seed);
}

/** A structurally valid pool with a provably weaker PAC floor: one
 *  detector means deterministic selection, so the Theorem-1 lower
 *  bound (min-over-i of the weighted disagreement with the others) is
 *  exactly zero. */
std::shared_ptr<const core::Rhmd>
singleDetectorPool()
{
    const core::Experiment &exp = sharedExperiment();
    std::vector<features::FeatureSpec> specs(1);
    specs[0].kind = features::FeatureKind::Instructions;
    specs[0].period = 10000;
    return core::buildRhmd("LR", specs, exp.corpus(),
                           exp.split().victimTrain, 16, 5);
}

std::shared_ptr<const core::Rhmd>
twoDetectorPool()
{
    const core::Experiment &exp = sharedExperiment();
    std::vector<features::FeatureSpec> specs(2);
    specs[0].kind = features::FeatureKind::Instructions;
    specs[0].period = 10000;
    specs[1].kind = features::FeatureKind::Memory;
    specs[1].period = 10000;
    return core::buildRhmd("LR", specs, exp.corpus(),
                           exp.split().victimTrain, 16, 5);
}

/** Two detectors at period 5000: epoch 5000, so twice the epochs per
 *  program of the 10000-epoch pools. */
std::shared_ptr<const core::Rhmd>
shortEpochPool()
{
    const core::Experiment &exp = sharedExperiment();
    std::vector<features::FeatureSpec> specs(2);
    specs[0].kind = features::FeatureKind::Instructions;
    specs[0].period = 5000;
    specs[1].kind = features::FeatureKind::Memory;
    specs[1].period = 5000;
    return core::buildRhmd("LR", specs, exp.corpus(),
                           exp.split().victimTrain, 16, 5);
}

/**
 * The failover-stream derivation and attempt budget of
 * DetectionService, mirrored for serial replay (part of the DESIGN.md
 * section 12 replay contract).
 */
constexpr std::uint64_t kFailoverSalt = 0xfa170f32c001d00dULL;
constexpr std::size_t kMaxFailoverAttempts = 64;

/**
 * Serial replay of the full per-request serving pipeline — switching
 * stream, keyed chaos faults, failover redraws — against one pool
 * version with no quarantine dynamics. What the service must produce
 * for (key, version) at any worker count while chaos is active.
 */
std::vector<int>
replayWithChaos(const core::Rhmd &pool, std::uint64_t seed,
                const ChaosConfig &chaos_config,
                const features::ProgramFeatures &prog, std::uint64_t key)
{
    const ChaosInjector chaos(chaos_config);
    const std::uint32_t epoch_len = pool.decisionPeriod();
    const std::size_t n_epochs = prog.windows(epoch_len).size();
    Rng switching = SplitRng(seed).at(key);
    const SplitRng failover(seed ^ kFailoverSalt);
    std::vector<int> out;
    for (std::size_t e = 0; e < n_epochs; ++e) {
        const std::size_t pick =
            switching.weightedIndex(pool.policy());
        const core::Hmd &det = *pool.detectors()[pick];
        const std::size_t index =
            e * (epoch_len / det.decisionPeriod());
        const double score =
            det.windowScore(prog.windows(det.decisionPeriod())[index]);
        if (!chaos.scoreFault(key, e, pick)) {
            out.push_back(score >= det.threshold() ? 1 : 0);
            continue;
        }
        Rng redraw = SplitRng(failover.seedAt(key)).at(e);
        for (std::size_t attempt = 0; attempt < kMaxFailoverAttempts;
             ++attempt) {
            const std::size_t repick =
                redraw.weightedIndex(pool.policy());
            const core::Hmd &alt = *pool.detectors()[repick];
            const std::size_t alt_index =
                e * (epoch_len / alt.decisionPeriod());
            const double alt_score = alt.windowScore(
                prog.windows(alt.decisionPeriod())[alt_index]);
            if (chaos.scoreFault(key, e, repick))
                continue;
            out.push_back(alt_score >= alt.threshold() ? 1 : 0);
            break;
        }
    }
    return out;
}

/** Chaos-free replay: the section-11 contract for a healthy pool. */
std::vector<int>
replayDecisions(const core::Rhmd &pool, std::uint64_t seed,
                const features::ProgramFeatures &prog, std::uint64_t key)
{
    return replayWithChaos(pool, seed, ChaosConfig{}, prog, key);
}

// --- Admission units ------------------------------------------------

TEST(TokenBucket, RefillsAtRateAndDeniesWhenDrained)
{
    TenantQuota quota;
    quota.ratePerSecond = 2.0;
    quota.burst = 2.0;
    TokenBucket bucket(quota);
    // Starts full.
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_TRUE(bucket.tryAcquire(0.0));
    EXPECT_FALSE(bucket.tryAcquire(0.0));
    // Half a second at 2/s refills one token, not two.
    EXPECT_TRUE(bucket.tryAcquire(0.5));
    EXPECT_FALSE(bucket.tryAcquire(0.5));
    // Time regression is clamped, never credited.
    EXPECT_FALSE(bucket.tryAcquire(0.1));
    // Refill caps at burst.
    EXPECT_TRUE(bucket.tryAcquire(100.0));
    EXPECT_TRUE(bucket.tryAcquire(100.0));
    EXPECT_FALSE(bucket.tryAcquire(100.0));
}

TEST(Admission, FairShareBitesOnlyUnderPressure)
{
    AdmissionConfig config;
    config.enabled = true;
    // kFairShareWatermark (0.75): pressure at depth >= 6 of 8.
    AdmissionController admission(config, 8);

    // Two active tenants: fair share is 8 / 2 = 4 slots each.
    ASSERT_TRUE(admission.admit(1, 0.0, 0).isOk());
    for (int i = 0; i < 4; ++i)
        ASSERT_TRUE(admission.admit(0, 0.0, 0).isOk());
    EXPECT_EQ(admission.outstanding(0), 4u);

    // Below the watermark the heavy tenant is still admitted...
    EXPECT_TRUE(admission.admit(0, 0.0, 5).isOk());
    admission.release(0);

    // ...at it, a tenant at its share is shed while a light tenant
    // sails through.
    const support::Status over = admission.admit(0, 0.0, 6);
    ASSERT_FALSE(over.isOk());
    EXPECT_NE(over.message().find("fair share"), std::string::npos);
    EXPECT_TRUE(admission.admit(1, 0.0, 6).isOk());

    // Draining the backlog restores admission under pressure.
    for (int i = 0; i < 4; ++i)
        admission.release(0);
    EXPECT_TRUE(admission.admit(0, 0.0, 6).isOk());
}

TEST(Breaker, OpensHalfOpensAndCloses)
{
    BreakerConfig config;
    config.enabled = true;
    config.failureThreshold = 3;
    config.cooldown.initialBackoff = 1.0;
    CircuitBreaker breaker(config);

    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    // A success resets the failure streak: 2 + 2 failures stay closed.
    breaker.recordFailure(0.0);
    breaker.recordFailure(0.0);
    breaker.recordSuccess(0.0);
    breaker.recordFailure(0.0);
    breaker.recordFailure(0.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
    breaker.recordFailure(0.0);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Open);
    EXPECT_EQ(breaker.openCount(), 1u);

    // Open sheds until the cool-down (initialBackoff = 1s) elapses.
    EXPECT_FALSE(breaker.allow(0.5));
    EXPECT_TRUE(breaker.allow(1.1));
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    // Half-open admits exactly kBreakerProbes (2) probes.
    EXPECT_TRUE(breaker.allow(1.1));
    EXPECT_FALSE(breaker.allow(1.1));
    // All probes succeeding closes it.
    breaker.recordSuccess(1.2);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::HalfOpen);
    breaker.recordSuccess(1.2);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

TEST(Breaker, ProbeFailureReopensWithLongerCooldown)
{
    BreakerConfig config;
    config.enabled = true;
    config.failureThreshold = 1;
    config.cooldown.initialBackoff = 1.0;
    CircuitBreaker breaker(config);

    breaker.recordFailure(0.0); // open #1, cool-down 1s
    ASSERT_TRUE(breaker.allow(1.5));
    breaker.recordFailure(1.5); // probe failed: open #2, cool-down 2s
    EXPECT_EQ(breaker.openCount(), 2u);
    // 1s after reopening — the first cool-down would have expired,
    // the doubled one has not.
    EXPECT_FALSE(breaker.allow(2.6));
    EXPECT_TRUE(breaker.allow(3.6));
    // Both probes succeeding closes it.
    breaker.recordSuccess(3.6);
    ASSERT_TRUE(breaker.allow(3.6));
    breaker.recordSuccess(3.6);
    EXPECT_EQ(breaker.state(), CircuitBreaker::State::Closed);
}

// --- PoolManager ----------------------------------------------------

TEST(PoolManager, StampsVersionsAndRejectsNull)
{
    PoolManager manager(threeDetectorPool(), runtime::HealthConfig{});
    EXPECT_EQ(manager.version(), 1u);
    EXPECT_EQ(manager.current()->version, 1u);

    const auto rejected = manager.swapPool(nullptr);
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(),
              support::StatusCode::InvalidArgument);
    EXPECT_EQ(manager.version(), 1u);

    const auto accepted = manager.swapPool(threeDetectorPool(9));
    ASSERT_TRUE(accepted.isOk());
    EXPECT_EQ(*accepted, 2u);
    EXPECT_EQ(manager.version(), 2u);
    // Promotion starts from a clean health slate.
    EXPECT_EQ(manager.current()->health.epoch(), 0u);
}

TEST(PoolManager, OldSnapshotSurvivesSwap)
{
    PoolManager manager(threeDetectorPool(), runtime::HealthConfig{});
    // An in-flight batch holds the version-1 snapshot...
    const std::shared_ptr<PoolState> held = manager.current();
    ASSERT_TRUE(manager.swapPool(threeDetectorPool(9)).isOk());
    // ...and keeps scoring against it after the swap: the epoch is
    // the shared_ptr, not a lock.
    EXPECT_EQ(held->version, 1u);
    EXPECT_EQ(held->pool->poolSize(), 3u);
    EXPECT_EQ(manager.current()->version, 2u);
    EXPECT_NE(manager.current()->pool.get(), held->pool.get());
}

TEST(Pac, FloorGateRejectsProvablyWeakerPool)
{
    const core::Experiment &exp = sharedExperiment();
    const auto current = threeDetectorPool();
    const auto weaker = singleDetectorPool();

    // Precondition of the scenario: the diverse pool has a strictly
    // positive Theorem-1 floor, the single-detector pool's is zero.
    const core::PacReport cur = core::computePac(
        *current, exp.corpus(), exp.split().attackerTest);
    ASSERT_GT(cur.lowerBound, 0.0);
    const core::PacReport weak = core::computePac(
        *weaker, exp.corpus(), exp.split().attackerTest);
    ASSERT_EQ(weak.lowerBound, 0.0);

    const support::Status floor = core::checkPacFloor(
        *weaker, *current, exp.corpus(), exp.split().attackerTest);
    ASSERT_FALSE(floor.isOk());
    EXPECT_EQ(floor.code(), support::StatusCode::FailedPrecondition);

    // Equal floors pass, and tolerance admits a bounded regression.
    EXPECT_TRUE(core::checkPacFloor(*current, *current, exp.corpus(),
                                    exp.split().attackerTest)
                    .isOk());
    EXPECT_TRUE(core::checkPacFloor(*weaker, *current, exp.corpus(),
                                    exp.split().attackerTest,
                                    cur.lowerBound)
                    .isOk());
}

// --- Service: hot swap ----------------------------------------------

TEST(ServeSwap, DecisionsDeterministicPerKeyAndVersionUnderSwap)
{
    const auto &programs = sharedExperiment().corpus().programs;
    const auto pool_v1 = threeDetectorPool(5);
    const auto pool_v2 = threeDetectorPool(9);

    struct Shape
    {
        std::size_t workers;
        std::size_t maxBatch;
    };
    for (const Shape &shape :
         {Shape{1, 1}, Shape{1, 8}, Shape{4, 1}, Shape{4, 16}}) {
        ServeConfig sc;
        sc.workers = shape.workers;
        sc.maxBatch = shape.maxBatch;
        sc.queueCapacity = 4096;
        DetectionService service(pool_v1, sc);

        std::vector<std::future<support::StatusOr<ServeReport>>>
            futures;
        std::uint64_t key = 0;
        for (std::size_t rep = 0; rep < 3; ++rep) {
            for (const auto &prog : programs)
                futures.push_back(service.submit(prog, key++));
            // Promote mid-traffic after the first wave: in-flight
            // batches finish on version 1, later ones plan on 2.
            if (rep == 0) {
                const auto swapped = service.swapPool(pool_v2);
                ASSERT_TRUE(swapped.isOk());
                EXPECT_EQ(*swapped, 2u);
            }
        }
        ASSERT_EQ(service.poolVersion(), 2u);

        key = 0;
        for (std::size_t rep = 0; rep < 3; ++rep) {
            for (const auto &prog : programs) {
                const auto report = futures[key].get();
                ASSERT_TRUE(report.isOk()) << report.status().toString();
                const core::Rhmd &pool =
                    report->poolVersion == 1 ? *pool_v1 : *pool_v2;
                ASSERT_TRUE(report->poolVersion == 1 ||
                            report->poolVersion == 2);
                // Whichever version the request landed on, its
                // decisions are the serial replay for that version.
                EXPECT_EQ(report->decisions,
                          replayDecisions(pool, sc.seed, prog, key))
                    << "workers=" << shape.workers
                    << " maxBatch=" << shape.maxBatch << " key=" << key
                    << " version=" << report->poolVersion;
                ++key;
            }
        }
    }
}

TEST(ServeSwap, SwapsAcrossPoolSizesAndEpochsAnswerPerVersion)
{
    // A worker reuses its batch working set across batches; swapping
    // to a pool with fewer detectors and a shorter epoch, and back,
    // must leave every answer the serial replay of the version it
    // names.
    const auto &programs = sharedExperiment().corpus().programs;
    const std::vector<std::shared_ptr<const core::Rhmd>> pools = {
        threeDetectorPool(5), shortEpochPool(), threeDetectorPool(9)};
    ASSERT_EQ(pools[0]->decisionPeriod(), 10000u);
    ASSERT_EQ(pools[1]->poolSize(), 2u);
    ASSERT_EQ(pools[1]->decisionPeriod(), 5000u);

    struct Shape
    {
        std::size_t workers;
        std::size_t maxBatch;
    };
    for (const Shape &shape : {Shape{1, 16}, Shape{3, 4}}) {
        ServeConfig sc;
        sc.workers = shape.workers;
        sc.maxBatch = shape.maxBatch;
        sc.queueCapacity = 4096;
        DetectionService service(pools[0], sc);

        std::vector<std::future<support::StatusOr<ServeReport>>>
            futures;
        for (std::size_t wave = 0; wave < pools.size(); ++wave) {
            const std::size_t wave_start = futures.size();
            for (const auto &prog : programs)
                futures.push_back(service.submit(prog, futures.size()));
            if (wave + 1 == pools.size())
                break;
            // Requests submitted after the last swap plan on that
            // version or a later one, so once one of them has been
            // answered, this wave's version has served a batch. The
            // rest of the wave is still in flight across the swap.
            futures[wave_start].wait();
            const auto swapped = service.swapPool(pools[wave + 1]);
            ASSERT_TRUE(swapped.isOk());
            EXPECT_EQ(*swapped, wave + 2);
        }

        std::vector<std::size_t> served(pools.size(), 0);
        for (std::size_t key = 0; key < futures.size(); ++key) {
            const auto &prog = programs[key % programs.size()];
            const auto report = futures[key].get();
            ASSERT_TRUE(report.isOk()) << report.status().toString();
            ASSERT_GE(report->poolVersion, 1u);
            ASSERT_LE(report->poolVersion, pools.size());
            const core::Rhmd &pool = *pools[report->poolVersion - 1];
            ++served[report->poolVersion - 1];
            EXPECT_EQ(report->epochs,
                      prog.windows(pool.decisionPeriod()).size());
            EXPECT_EQ(report->decisions,
                      replayDecisions(pool, sc.seed, prog, key))
                << "workers=" << shape.workers
                << " maxBatch=" << shape.maxBatch << " key=" << key
                << " version=" << report->poolVersion;
        }
        for (std::size_t v = 0; v < pools.size(); ++v)
            EXPECT_GT(served[v], 0u) << "version " << v + 1;
    }
}

TEST(ServeSwap, InFlightBatchFinishesOnItsStartingVersion)
{
    const auto &programs = sharedExperiment().corpus().programs;
    const auto pool_v2 = threeDetectorPool(9);

    std::atomic<bool> first_batch{true};
    std::promise<std::uint64_t> planned;
    std::promise<void> release;
    std::shared_future<void> release_future =
        release.get_future().share();

    ServeConfig sc;
    sc.workers = 1;
    // Hooks only; all fault rates stay 0.
    sc.chaos.onBatchPlanned = [&](std::uint64_t version) {
        if (first_batch.exchange(false)) {
            planned.set_value(version);
            release_future.wait();
        }
    };
    DetectionService service(threeDetectorPool(5), sc);

    auto in_flight = service.submit(programs[0], 0);
    // The batch is planned (snapshot taken, version 1) and now held
    // in flight deterministically — no sleeps, no races.
    EXPECT_EQ(planned.get_future().get(), 1u);

    const auto swapped = service.swapPool(pool_v2);
    ASSERT_TRUE(swapped.isOk());
    EXPECT_EQ(*swapped, 2u);
    EXPECT_EQ(service.poolVersion(), 2u);
    release.set_value();

    // The held batch answers with the version it planned against...
    const auto old_report = in_flight.get();
    ASSERT_TRUE(old_report.isOk());
    EXPECT_EQ(old_report->poolVersion, 1u);

    // ...and the next request serves from the promoted pool.
    const auto new_report = service.submit(programs[0], 1).get();
    ASSERT_TRUE(new_report.isOk());
    EXPECT_EQ(new_report->poolVersion, 2u);
    EXPECT_EQ(new_report->decisions,
              replayDecisions(*pool_v2, sc.seed, programs[0], 1));
}

TEST(ServeSwap, PacGateRejectsPoisonedCandidateAndKeepsServing)
{
    const core::Experiment &exp = sharedExperiment();
    const auto &programs = exp.corpus().programs;
    const auto pool_v1 = threeDetectorPool(5);

    ServeConfig sc;
    sc.workers = 1;
    sc.gate.corpus = &exp.corpus();
    sc.gate.testIdx = exp.split().attackerTest;
    DetectionService service(pool_v1, sc);

    // A poisoned candidate — structurally valid but provably easier
    // to reverse-engineer — must be rejected at the gate.
    const auto rejected = service.swapPool(singleDetectorPool());
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.status().code(),
              support::StatusCode::FailedPrecondition);
    EXPECT_EQ(service.poolVersion(), 1u);

    // Rejection is non-disruptive: version 1 keeps serving verbatim.
    const auto report = service.submit(programs[0], 7).get();
    ASSERT_TRUE(report.isOk());
    EXPECT_EQ(report->poolVersion, 1u);
    EXPECT_EQ(report->decisions,
              replayDecisions(*pool_v1, sc.seed, programs[0], 7));
}

// --- Service: malformed requests ------------------------------------

TEST(ServeRequests, MalformedProgramsAnswerInvalidArgument)
{
    const auto &programs = sharedExperiment().corpus().programs;
    const auto pool = threeDetectorPool(5);
    ASSERT_GE(programs[0].windows(10000).size(), 3u);
    // The pool's epoch is 10000 and one detector runs at 5000: a
    // program without that period, and one whose 5000 stream ends
    // after its first window, cannot be planned.
    features::ProgramFeatures no_period = programs[0];
    no_period.byPeriod.erase(5000);
    features::ProgramFeatures cut = programs[0];
    cut.byPeriod.at(5000).resize(1);

    for (bool fail_open : {false, true}) {
        ServeConfig sc;
        sc.workers = 1;
        sc.failOpen = fail_open;
        sc.breaker.enabled = true;
        sc.breaker.failureThreshold = 2;
        DetectionService service(pool, sc);
        for (const features::ProgramFeatures *bad : {&no_period, &cut}) {
            const auto report = service.submit(*bad, 1).get();
            ASSERT_FALSE(report.isOk()) << "failOpen=" << fail_open;
            EXPECT_EQ(report.status().code(),
                      support::StatusCode::InvalidArgument)
                << report.status().toString();
        }
        // Neither counted toward the breaker, and the service still
        // answers a well-formed program as the serial replay does.
        EXPECT_EQ(service.breakerState(), CircuitBreaker::State::Closed);
        const auto good = service.submit(programs[0], 1).get();
        ASSERT_TRUE(good.isOk()) << good.status().toString();
        EXPECT_EQ(good->decisions,
                  replayDecisions(*pool, sc.seed, programs[0], 1));
    }
}

TEST(ServeRequests, ShadowSkipsProgramsTheCandidateCannotPlan)
{
    const auto &programs = sharedExperiment().corpus().programs;
    // The live pool runs at 10000 only; the candidate adds 5000.
    const auto live = twoDetectorPool();
    features::ProgramFeatures no_period = programs[0];
    no_period.byPeriod.erase(5000);

    ServeConfig sc;
    sc.workers = 1;
    DetectionService service(live, sc);
    ASSERT_TRUE(service.installShadow(threeDetectorPool(9)).isOk());
    const auto report = service.submit(no_period, 3).get();
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_EQ(report->decisions,
              replayDecisions(*live, sc.seed, no_period, 3));
    EXPECT_EQ(service.shadowStats().requests, 0u);

    ASSERT_TRUE(service.submit(programs[0], 4).get().isOk());
    EXPECT_EQ(service.shadowStats().requests, 1u);
}

// --- Service: admission ---------------------------------------------

TEST(ServeAdmission, QuotaExhaustionShedsWithoutRefill)
{
    const auto &programs = sharedExperiment().corpus().programs;
    ServeConfig sc;
    sc.workers = 1;
    sc.admission.enabled = true;
    sc.admission.quota.ratePerSecond = 0.0; // no refill
    sc.admission.quota.burst = 2.0;
    DetectionService service(threeDetectorPool(), sc);

    const auto &quota = support::metrics().counter(
        "serve.shed_quota", "", support::MetricDomain::Timing);
    const std::uint64_t quota_before = quota.value();

    std::vector<std::future<support::StatusOr<ServeReport>>> futures;
    for (std::uint64_t key = 0; key < 5; ++key)
        futures.push_back(service.submit(programs[0], key));

    std::size_t served = 0, shed = 0;
    for (auto &future : futures) {
        const auto report = future.get();
        if (report.isOk()) {
            ++served;
            continue;
        }
        EXPECT_EQ(report.status().code(),
                  support::StatusCode::Unavailable);
        EXPECT_NE(report.status().message().find("quota"),
                  std::string::npos);
        ++shed;
    }
    EXPECT_EQ(served, 2u);
    EXPECT_EQ(shed, 3u);
    EXPECT_EQ(quota.value() - quota_before, 3u);
}

TEST(ServeAdmission, BreakerOpensOnShedBurstThenShedsAtSubmit)
{
    const auto &programs = sharedExperiment().corpus().programs;
    ServeConfig sc;
    sc.workers = 1;
    // Every request exceeds this deadline, and every deadline shed is
    // a breaker failure.
    sc.deadlineSeconds = 1e-12;
    sc.breaker.enabled = true;
    sc.breaker.failureThreshold = 2;
    // backoffDelay caps every cool-down at kMaxBackoff (64 s): the
    // test ends inside that first cool-down, so the breaker stays open.
    sc.breaker.cooldown.initialBackoff = support::kMaxBackoff;
    DetectionService service(threeDetectorPool(), sc);

    // The first two deadline sheds trip the threshold; any later
    // request may already be breaker-shed at submit.
    for (std::uint64_t key = 0; key < 3; ++key) {
        const auto report = service.submit(programs[0], key).get();
        ASSERT_FALSE(report.isOk());
        EXPECT_EQ(report.status().code(),
                  support::StatusCode::Unavailable);
    }
    EXPECT_EQ(service.breakerState(), CircuitBreaker::State::Open);

    // With the breaker open the request never reaches the queue.
    const auto shed = service.submit(programs[0], 99).get();
    ASSERT_FALSE(shed.isOk());
    EXPECT_NE(shed.status().message().find("circuit breaker"),
              std::string::npos);
}

TEST(ServeAdmission, FullQueueEvictsExpiredAtSubmitAndPopShedsTheRest)
{
    const auto &programs = sharedExperiment().corpus().programs;

    std::atomic<bool> first_batch{true};
    std::promise<void> planned;
    std::promise<void> release;
    std::shared_future<void> release_future =
        release.get_future().share();

    ServeConfig sc;
    sc.workers = 1;
    sc.maxBatch = 1;
    sc.queueCapacity = 2;
    sc.deadlineSeconds = 0.5;
    // Hooks only; all fault rates stay 0.
    sc.chaos.onBatchPlanned = [&](std::uint64_t) {
        if (first_batch.exchange(false)) {
            planned.set_value();
            release_future.wait();
        }
    };
    DetectionService service(threeDetectorPool(), sc);

    const auto &submit_shed = support::metrics().counter(
        "serve.shed_deadline_submit", "",
        support::MetricDomain::Timing);
    const auto &pop_shed = support::metrics().counter(
        "serve.shed_deadline", "", support::MetricDomain::Timing);
    const std::uint64_t submit_before = submit_shed.value();
    const std::uint64_t pop_before = pop_shed.value();

    // A is popped and then held in flight by the chaos hook; B and C
    // fill the queue behind it.
    auto held = service.submit(programs[0], 0);
    planned.get_future().wait();
    auto expired_b = service.submit(programs[0], 1);
    auto expired_c = service.submit(programs[0], 2);

    // Let B and C blow the deadline while the queue stays full.
    std::this_thread::sleep_for(std::chrono::milliseconds(750));

    // D would bounce off a full queue, but the submit boundary first
    // reclaims dead capacity: B (oldest, expired) is evicted to make
    // room and D is admitted in its place.
    auto live = service.submit(programs[0], 3);
    release.set_value();

    const auto b = expired_b.get();
    ASSERT_FALSE(b.isOk());
    EXPECT_EQ(b.status().code(), support::StatusCode::Unavailable);
    EXPECT_NE(b.status().message().find("queue wait exceeded"),
              std::string::npos);

    // Eviction stops as soon as space opens, so C was still queued at
    // submit time; the worker sheds it at the pop boundary instead,
    // under the other counter and with the pop-shed message.
    const auto c = expired_c.get();
    ASSERT_FALSE(c.isOk());
    EXPECT_EQ(c.status().code(), support::StatusCode::Unavailable);
    EXPECT_NE(c.status().message().find("shed after queueing"),
              std::string::npos);

    ASSERT_TRUE(held.get().isOk());
    ASSERT_TRUE(live.get().isOk());
    EXPECT_EQ(submit_shed.value() - submit_before, 1u);
    EXPECT_EQ(pop_shed.value() - pop_before, 1u);
}

// --- Service: degradation -------------------------------------------

ServeConfig
allBrokenConfig(bool fail_open)
{
    ServeConfig sc;
    sc.workers = 1;
    sc.failOpen = fail_open;
    // One failure quarantines, and nothing recovers within the test.
    sc.health.failureThreshold = 1;
    sc.health.quarantineEpochs = 1u << 20;
    sc.chaos.brokenDetectors = {0, 1, 2};
    return sc;
}

TEST(ServeDegrade, FailOpenAnswersDegradedWhenPoolQuarantined)
{
    const auto &programs = sharedExperiment().corpus().programs;
    DetectionService service(threeDetectorPool(),
                             allBrokenConfig(true));

    // Request 1 burns through the pool: every score faults, failover
    // exhausts, and all detectors end up quarantined.
    const auto first = service.submit(programs[0], 0).get();
    ASSERT_FALSE(first.isOk());
    EXPECT_EQ(first.status().code(), support::StatusCode::Unavailable);

    // Request 2 hits a fully quarantined snapshot: fail-open keeps
    // the protected workload running with an explicit degraded
    // benign pass-through.
    const auto second = service.submit(programs[0], 1).get();
    ASSERT_TRUE(second.isOk()) << second.status().toString();
    EXPECT_TRUE(second->degraded);
    EXPECT_EQ(second->programDecision, 0);
    EXPECT_EQ(second->classified, 0u);
    EXPECT_GT(second->epochs, 0u);
    EXPECT_EQ(second->poolVersion, 1u);
}

TEST(ServeDegrade, FailClosedRejectsWhenPoolQuarantined)
{
    const auto &programs = sharedExperiment().corpus().programs;
    DetectionService service(threeDetectorPool(),
                             allBrokenConfig(false));

    ASSERT_FALSE(service.submit(programs[0], 0).get().isOk());
    const auto second = service.submit(programs[0], 1).get();
    ASSERT_FALSE(second.isOk());
    EXPECT_EQ(second.status().code(),
              support::StatusCode::Unavailable);
    EXPECT_NE(second.status().message().find("quarantined"),
              std::string::npos);
}

TEST(ServeDegrade, SwapRestoresServiceAfterFullQuarantine)
{
    const auto &programs = sharedExperiment().corpus().programs;
    ServeConfig sc = allBrokenConfig(false);
    sc.chaos.brokenDetectors = {0, 1, 2};
    DetectionService service(threeDetectorPool(5), sc);
    ASSERT_FALSE(service.submit(programs[0], 0).get().isOk());

    // Promotion installs a fresh health slate: even though chaos
    // would break the new pool's detectors again, the promoted
    // version starts with every detector available — quarantine is
    // state earned per version, never inherited.
    ASSERT_TRUE(service.swapPool(threeDetectorPool(9)).isOk());
    const runtime::HealthMonitor fresh = service.healthSnapshot();
    EXPECT_EQ(fresh.quarantinedCount(), 0u);
    EXPECT_EQ(fresh.availableCount(), 3u);
}

TEST(ServeDegrade, BrokenDetectorIsQuarantinedAndPoolDegrades)
{
    const auto &programs = sharedExperiment().corpus().programs;
    ServeConfig sc;
    sc.workers = 1;
    sc.health.failureThreshold = 3;
    sc.health.quarantineEpochs = 1u << 20;  // no probation here
    sc.chaos.brokenDetectors = {0};
    DetectionService service(threeDetectorPool(), sc);

    // Detector 0's failure count at the first answer that saw it
    // quarantined; once quarantined it is never drawn again.
    std::optional<std::size_t> quarantined_failures;
    for (std::size_t i = 0; i < 10; ++i) {
        const auto report = service.submit(programs[i], i).get();
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        // Failover: every epoch still produces a decision.
        EXPECT_EQ(report->classified, report->epochs);
        const runtime::HealthMonitor health = service.healthSnapshot();
        if (health.health(0) != runtime::DetectorHealth::Quarantined)
            continue;
        if (!quarantined_failures)
            quarantined_failures = health.failureCount(0);
        EXPECT_EQ(health.failureCount(0), *quarantined_failures)
            << "program " << i;
    }
    service.stop();

    const runtime::HealthMonitor &health = service.health();
    ASSERT_TRUE(quarantined_failures.has_value());
    EXPECT_EQ(health.health(0), runtime::DetectorHealth::Quarantined);
    EXPECT_EQ(health.health(1), runtime::DetectorHealth::Healthy);
    EXPECT_EQ(health.health(2), runtime::DetectorHealth::Healthy);
    bool saw_quarantine = false;
    for (const auto &event : health.events())
        saw_quarantine |=
            event.kind == runtime::HealthEvent::Kind::Quarantine;
    EXPECT_TRUE(saw_quarantine);
}

TEST(ServeDegrade, FailoverSkipsADetectorQuarantinedMidBatch)
{
    // One failure quarantines. Every slot the plan gives detector 0
    // fails in the score phase and quarantines it; their failover
    // redraws then run against the renormalized policy, so none of
    // them may land on detector 0 again.
    ServeConfig sc;
    sc.workers = 1;
    sc.health.failureThreshold = 1;
    sc.health.quarantineEpochs = 1u << 20;
    sc.chaos.brokenDetectors = {0};
    const auto pool = threeDetectorPool();
    const auto &prog = sharedExperiment().corpus().programs[0];

    // The first key whose plan against the healthy pool gives
    // detector 0 at least four epochs.
    std::size_t planned = 0;
    std::uint64_t key = 0;
    for (; key < 256; ++key) {
        Rng switching = SplitRng(sc.seed).at(key);
        planned = 0;
        for (std::size_t e = 0; e < prog.windows(10000).size(); ++e)
            planned += switching.weightedIndex(pool->policy()) == 0 ? 1 : 0;
        if (planned >= 4)
            break;
    }
    ASSERT_GE(planned, 4u);

    DetectionService service(pool, sc);
    const auto report = service.submit(prog, key).get();
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_EQ(report->classified, report->epochs);
    EXPECT_EQ(report->detectorFailures, planned);
    service.stop();
    EXPECT_EQ(service.health().failureCount(0), planned);
    EXPECT_EQ(service.health().health(0),
              runtime::DetectorHealth::Quarantined);
}

TEST(ServeDegrade, NeverQuarantineThresholdStillClassifiesEveryEpoch)
{
    // pool size * threshold wraps to 0 in 64-bit arithmetic; the
    // capped failover budget must still give failed epochs redraws.
    const auto &programs = sharedExperiment().corpus().programs;
    ServeConfig sc;
    sc.workers = 1;
    sc.health.failureThreshold = std::size_t{1} << 63;
    {
        DetectionService service(twoDetectorPool(), sc);
        const auto report = service.submit(programs[0], 0).get();
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        EXPECT_EQ(report->classified, report->epochs);
        EXPECT_EQ(report->detectorFailures, 0u);
    }

    // The same threshold with one broken detector: every epoch drawn
    // to it fails over to the other, which a zero budget would lose.
    sc.chaos.brokenDetectors = {0};
    DetectionService service(twoDetectorPool(), sc);
    std::size_t failures = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        const auto report = service.submit(programs[i], i).get();
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        EXPECT_EQ(report->classified, report->epochs);
        failures += report->detectorFailures;
    }
    service.stop();
    EXPECT_GT(failures, 0u);
    EXPECT_EQ(service.health().quarantinedCount(), 0u);
}

TEST(ServeDegrade, BrokenPoolRedrawsAreCappedPerEpoch)
{
    // A threshold no epoch can reach never quarantines, so a fully
    // broken pool redraws each epoch until the capped budget runs
    // out instead of pool size * threshold times.
    const auto &prog = sharedExperiment().corpus().programs[0];
    ServeConfig sc;
    sc.workers = 1;
    sc.health.failureThreshold = 1u << 12;
    sc.chaos.brokenDetectors = {0, 1, 2};
    DetectionService service(threeDetectorPool(), sc);

    const auto report = service.submit(prog, 0).get();
    ASSERT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(), support::StatusCode::Unavailable);
    service.stop();

    // One planned draw plus the capped redraws, per epoch.
    const runtime::HealthMonitor &health = service.health();
    std::size_t failures = 0;
    for (std::size_t d = 0; d < 3; ++d)
        failures += health.failureCount(d);
    EXPECT_EQ(failures,
              (1 + kMaxFailoverAttempts) * prog.windows(10000).size());
    EXPECT_EQ(health.quarantinedCount(), 0u);
}

// --- Service: observability -----------------------------------------

TEST(ServeMetrics, StopSheddingIsCountedApartFromOverload)
{
    const auto &programs = sharedExperiment().corpus().programs;
    const auto &stopped = support::metrics().counter(
        "serve.shed_stopped", "", support::MetricDomain::Timing);
    const auto &queue_full = support::metrics().counter(
        "serve.shed_queue_full", "", support::MetricDomain::Timing);
    const std::uint64_t stopped_before = stopped.value();
    const std::uint64_t queue_full_before = queue_full.value();

    DetectionService service(threeDetectorPool(), ServeConfig{});
    service.stop();
    const auto report = service.submit(programs[0], 0).get();
    ASSERT_FALSE(report.isOk());

    EXPECT_EQ(stopped.value() - stopped_before, 1u);
    EXPECT_EQ(queue_full.value(), queue_full_before);
}

/** Observation count of histogram @p name in the registry's JSON; -1
 *  when it is not there. */
long
histogramCount(const std::string &json, const std::string &name)
{
    const std::size_t at = json.find("\"name\": \"" + name + "\"");
    if (at == std::string::npos)
        return -1;
    const std::string key = "\"count\": ";
    const std::size_t count = json.find(key, at);
    return count == std::string::npos
               ? -1
               : std::stol(json.substr(count + key.size()));
}

TEST(ServeMetrics, BatchPhasesAreObservedOncePerBatch)
{
    const auto &programs = sharedExperiment().corpus().programs;
    const std::vector<std::string> phases = {
        "serve.queue_wait_seconds", "serve.plan_seconds",
        "serve.score_seconds", "serve.fulfill_seconds"};
    const auto &batches = support::metrics().counter(
        "serve.batches", "", support::MetricDomain::Timing);
    {
        // Registers the histograms, so their counts read before any
        // batch below.
        DetectionService warm(threeDetectorPool(), ServeConfig{});
        ASSERT_TRUE(warm.submit(programs[0], 0).get().isOk());
    }
    const std::string before_json = support::metrics().toJsonArray();
    const std::uint64_t batches_before = batches.value();

    ServeConfig sc;
    sc.workers = 2;
    sc.maxBatch = 4;
    sc.queueCapacity = 4096;
    DetectionService service(threeDetectorPool(), sc);
    std::vector<std::future<support::StatusOr<ServeReport>>> futures;
    for (std::size_t key = 0; key < 3 * programs.size(); ++key)
        futures.push_back(
            service.submit(programs[key % programs.size()], key));
    for (auto &future : futures)
        ASSERT_TRUE(future.get().isOk());
    service.stop(); // every worker has observed its last batch

    // No request was shed or malformed, so every pop planned a batch.
    const std::string after_json = support::metrics().toJsonArray();
    const long planned =
        static_cast<long>(batches.value() - batches_before);
    EXPECT_GT(planned, 0);
    for (const std::string &phase : phases) {
        EXPECT_EQ(histogramCount(after_json, phase) -
                      histogramCount(before_json, phase),
                  planned)
            << phase;
        // Timing: the determinism gate's view leaves them out.
        EXPECT_EQ(support::metrics().toJsonArray(false).find(phase),
                  std::string::npos);
    }
}

TEST(ServeMetrics, HealthSnapshotIsSafeUnderLiveTraffic)
{
    const auto &programs = sharedExperiment().corpus().programs;
    ServeConfig sc;
    sc.workers = 4;
    sc.queueCapacity = 4096;
    sc.chaos.transientScoreFaultProb = 0.2; // keeps health churning
    sc.health.failureThreshold = 1u << 20;  // but never quarantines
    DetectionService service(threeDetectorPool(), sc);

    std::vector<std::future<support::StatusOr<ServeReport>>> futures;
    std::uint64_t key = 0;
    for (std::size_t rep = 0; rep < 4; ++rep)
        for (const auto &prog : programs)
            futures.push_back(service.submit(prog, key++));

    // Concurrent snapshots while workers mutate health state: the
    // TSan leg is the real assertion here.
    for (int i = 0; i < 64; ++i) {
        const runtime::HealthMonitor snapshot =
            service.healthSnapshot();
        EXPECT_LE(snapshot.availableCount(), 3u);
        EXPECT_LE(snapshot.quarantinedCount(), 3u);
    }
    for (auto &future : futures)
        EXPECT_TRUE(future.get().isOk());
}

// --- Service: chaos determinism -------------------------------------

TEST(ServeChaos, KeyedFaultsKeepDecisionsScheduleIndependent)
{
    const auto &programs = sharedExperiment().corpus().programs;
    const auto pool = threeDetectorPool();

    ServeConfig base;
    base.queueCapacity = 4096;
    base.chaos.transientScoreFaultProb = 0.3;
    base.chaos.workerStallProb = 0.1;
    base.chaos.workerStallMicros = 50;
    base.chaos.batchDelayProb = 0.1;
    base.chaos.batchDelayMicros = 50;
    // Quarantine off: the effective policy never shifts, so the
    // determinism domain collapses to (key, version) exactly.
    base.health.failureThreshold = 1u << 20;

    struct Shape
    {
        std::size_t workers;
        std::size_t maxBatch;
    };
    // (decisions, failover count) per key must match across every
    // schedule shape and the serial replay.
    std::map<std::uint64_t, std::pair<std::vector<int>, std::size_t>>
        reference;
    for (const Shape &shape : {Shape{1, 4}, Shape{4, 1}, Shape{4, 16}}) {
        ServeConfig sc = base;
        sc.workers = shape.workers;
        sc.maxBatch = shape.maxBatch;
        DetectionService service(pool, sc);

        std::vector<std::future<support::StatusOr<ServeReport>>>
            futures;
        std::uint64_t key = 0;
        for (const auto &prog : programs)
            futures.push_back(service.submit(prog, key++));

        key = 0;
        for (const auto &prog : programs) {
            const auto report = futures[key].get();
            ASSERT_TRUE(report.isOk()) << report.status().toString();
            EXPECT_EQ(report->poolVersion, 1u);
            EXPECT_EQ(
                report->decisions,
                replayWithChaos(*pool, sc.seed, base.chaos, prog, key))
                << "workers=" << shape.workers << " key=" << key;
            const auto outcome = std::make_pair(
                report->decisions, report->detectorFailures);
            const auto [it, inserted] =
                reference.emplace(key, outcome);
            if (!inserted) {
                EXPECT_EQ(it->second, outcome)
                    << "schedule-dependent outcome at key " << key;
            }
            ++key;
        }
    }
}

} // namespace

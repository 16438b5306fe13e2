/**
 * @file
 * Tests of the deployment fault layer: detector health monitoring,
 * per-window fault injection, and the faulty sensor read
 * (FaultInjector::sense) whose streams are served through
 * serve::DetectionService.
 */

#include <gtest/gtest.h>

#include <bit>

#include "core/experiment.hh"
#include "core/rhmd.hh"
#include "runtime/fault_injection.hh"
#include "runtime/health.hh"
#include "serve/service.hh"
#include "uarch/perf_counters.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::runtime;

const core::Experiment &
sharedExperiment()
{
    static const core::Experiment exp = [] {
        core::ExperimentConfig config;
        config.benignCount = 24;
        config.malwareCount = 48;
        config.periods = {5000, 10000};
        config.traceInsts = 60000;
        config.seed = 77;
        return core::Experiment::build(config);
    }();
    return exp;
}

std::unique_ptr<core::Rhmd>
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

features::RawWindow
syntheticWindow(std::uint32_t fill)
{
    features::RawWindow window;
    window.opcodeCounts.fill(fill);
    window.memDeltaBins.fill(fill);
    window.events.fill(fill);
    window.instCount = 10000;
    window.cycles = 12000.0;
    return window;
}

// --- HealthMonitor state machine -----------------------------------

TEST(HealthMonitor, QuarantineAfterConsecutiveFailures)
{
    HealthConfig config;
    config.failureThreshold = 3;
    HealthMonitor monitor(2, config);
    monitor.tick();
    monitor.recordFailure(0, "nan");
    monitor.recordFailure(0, "nan");
    EXPECT_EQ(monitor.health(0), DetectorHealth::Healthy);
    // A success in between resets the streak.
    monitor.recordSuccess(0);
    monitor.recordFailure(0, "nan");
    monitor.recordFailure(0, "nan");
    EXPECT_EQ(monitor.health(0), DetectorHealth::Healthy);
    monitor.recordFailure(0, "nan");
    EXPECT_EQ(monitor.health(0), DetectorHealth::Quarantined);
    EXPECT_FALSE(monitor.available(0));
    EXPECT_TRUE(monitor.available(1));
    EXPECT_EQ(monitor.availableCount(), 1u);
    EXPECT_EQ(monitor.quarantinedCount(), 1u);
}

TEST(HealthMonitor, ProbationAndRecovery)
{
    HealthConfig config;
    config.failureThreshold = 2;
    config.quarantineEpochs = 4;
    HealthMonitor monitor(1, config);

    monitor.tick();
    monitor.recordFailure(0, "nan");
    monitor.recordFailure(0, "nan");
    ASSERT_EQ(monitor.health(0), DetectorHealth::Quarantined);

    // Cool-down: stays quarantined until the window elapses.
    for (int i = 0; i < 3; ++i) {
        monitor.tick();
        EXPECT_EQ(monitor.health(0), DetectorHealth::Quarantined);
    }
    monitor.tick();
    ASSERT_EQ(monitor.health(0), DetectorHealth::Probation);
    EXPECT_TRUE(monitor.available(0));

    // kProbationSuccesses (4) clean scores graduate the detector
    // back to healthy.
    for (int i = 0; i < 3; ++i)
        monitor.recordSuccess(0);
    EXPECT_EQ(monitor.health(0), DetectorHealth::Probation);
    monitor.recordSuccess(0);
    EXPECT_EQ(monitor.health(0), DetectorHealth::Healthy);

    // The structured log recorded every transition in order.
    std::vector<HealthEvent::Kind> kinds;
    for (const auto &event : monitor.events())
        kinds.push_back(event.kind);
    const std::vector<HealthEvent::Kind> expected{
        HealthEvent::Kind::Quarantine, HealthEvent::Kind::Probation,
        HealthEvent::Kind::Recovery};
    EXPECT_EQ(kinds, expected);
}

TEST(HealthMonitor, FailuresThatChangeNoStateAreCountedNotLogged)
{
    HealthConfig config;
    config.failureThreshold = std::size_t{1} << 20;
    HealthMonitor monitor(1, config);
    monitor.tick();
    for (int i = 0; i < 1000; ++i)
        monitor.recordFailure(0, "nan");
    EXPECT_EQ(monitor.health(0), DetectorHealth::Healthy);
    EXPECT_EQ(monitor.failureCount(0), 1000u);
    EXPECT_TRUE(monitor.events().empty());
}

TEST(HealthMonitor, FailureDuringProbationRequarantines)
{
    HealthConfig config;
    config.failureThreshold = 2;
    config.quarantineEpochs = 1;
    HealthMonitor monitor(1, config);
    monitor.tick();
    monitor.recordFailure(0, "nan");
    monitor.recordFailure(0, "nan");
    monitor.tick();
    ASSERT_EQ(monitor.health(0), DetectorHealth::Probation);
    monitor.recordFailure(0, "nan");
    EXPECT_EQ(monitor.health(0), DetectorHealth::Quarantined);
    ASSERT_EQ(monitor.events().size(), 3u);
    EXPECT_EQ(monitor.events().back().kind, HealthEvent::Kind::Quarantine);
    EXPECT_EQ(monitor.events().back().detail,
              "failed during probation: nan");
}

TEST(HealthMonitor, EffectivePolicyRenormalizesOverSurvivors)
{
    HealthConfig config;
    config.failureThreshold = 1;
    HealthMonitor monitor(3, config);
    const std::vector<double> base{0.5, 0.25, 0.25};

    auto full = monitor.effectivePolicy(base);
    ASSERT_TRUE(full.isOk());
    EXPECT_DOUBLE_EQ((*full)[0], 0.5);

    monitor.recordFailure(0, "nan");
    auto degraded = monitor.effectivePolicy(base);
    ASSERT_TRUE(degraded.isOk());
    EXPECT_DOUBLE_EQ((*degraded)[0], 0.0);
    EXPECT_DOUBLE_EQ((*degraded)[1], 0.5);
    EXPECT_DOUBLE_EQ((*degraded)[2], 0.5);

    monitor.recordFailure(1, "nan");
    monitor.recordFailure(2, "nan");
    auto dead = monitor.effectivePolicy(base);
    ASSERT_FALSE(dead.isOk());
    EXPECT_EQ(dead.status().code(),
              support::StatusCode::Unavailable);
}

// --- FaultInjector -------------------------------------------------

TEST(FaultInjector, SameSeedSameFaults)
{
    FaultConfig config;
    config.counterNoiseSigma = 0.2;
    config.truncateWindowProb = 0.2;
    config.seed = 99;

    FaultInjector a(config);
    FaultInjector b(config);
    for (int i = 0; i < 50; ++i) {
        features::RawWindow wa = syntheticWindow(100 + i);
        features::RawWindow wb = syntheticWindow(100 + i);
        ASSERT_EQ(a.perturbWindow(wa), b.perturbWindow(wb));
        ASSERT_EQ(wa.events, wb.events);
        ASSERT_EQ(wa.opcodeCounts, wb.opcodeCounts);
    }
}

TEST(FaultInjector, NoFaultConfigIsIdentity)
{
    FaultInjector injector(FaultConfig{});
    features::RawWindow window = syntheticWindow(123);
    const features::RawWindow original = window;
    EXPECT_EQ(injector.perturbWindow(window), WindowFault::None);
    EXPECT_EQ(window.events, original.events);
    EXPECT_EQ(window.opcodeCounts, original.opcodeCounts);
    EXPECT_FALSE(injector.transientReadFailure());
}

TEST(FaultInjector, TruncationScalesTheWindow)
{
    FaultConfig config;
    config.truncateWindowProb = 1.0;
    config.truncateFrac = 0.5;
    FaultInjector injector(config);
    features::RawWindow window = syntheticWindow(100);
    EXPECT_EQ(injector.perturbWindow(window), WindowFault::Truncated);
    EXPECT_EQ(window.instCount, 5000u);
    EXPECT_EQ(window.events[0], 50u);
    EXPECT_EQ(window.opcodeCounts[0], 50u);

    // sense() counts every truncated window it delivers, at every
    // period.
    const auto &prog = sharedExperiment().corpus().programs[0];
    SenseReport report;
    const features::ProgramFeatures sensed =
        injector.sense(prog, 10000, support::RetryPolicy{}, report);
    EXPECT_EQ(report.truncated,
              sensed.windows(5000).size() + sensed.windows(10000).size());
    EXPECT_EQ(sensed.windows(10000).size(), prog.windows(10000).size());
}

TEST(FaultInjector, StuckCounterFreezesOneEvent)
{
    FaultConfig config;
    config.stuckCounterProb = 1.0;
    config.seed = 4;
    FaultInjector injector(config);

    features::RawWindow first = syntheticWindow(100);
    injector.perturbWindow(first);
    features::RawWindow second = syntheticWindow(200);
    injector.perturbWindow(second);

    std::size_t frozen = 0;
    for (std::size_t e = 0; e < uarch::kNumEvents; ++e)
        frozen += second.events[e] == 100u ? 1 : 0;
    EXPECT_EQ(frozen, 1u);
}

// --- FaultInjector::sense -----------------------------------------

/** Field-by-field, bit-exact window equality. */
bool
sameBits(const features::RawWindow &a, const features::RawWindow &b)
{
    return a.opcodeCounts == b.opcodeCounts &&
           a.memDeltaBins == b.memDeltaBins && a.events == b.events &&
           a.instCount == b.instCount &&
           std::bit_cast<std::uint64_t>(a.cycles) ==
               std::bit_cast<std::uint64_t>(b.cycles) &&
           std::bit_cast<std::uint64_t>(a.injectedFrac) ==
               std::bit_cast<std::uint64_t>(b.injectedFrac) &&
           a.truncated == b.truncated;
}

/**
 * The clean epochs of @p clean whose epoch-length window appears in
 * @p sensed, matched in order; size() < sensed's epoch count when
 * @p sensed is not a subsequence of @p clean.
 */
std::vector<std::size_t>
survivingEpochs(const features::ProgramFeatures &clean,
                const features::ProgramFeatures &sensed,
                std::uint32_t epoch)
{
    const auto &all = clean.windows(epoch);
    const auto &kept = sensed.windows(epoch);
    std::vector<std::size_t> out;
    for (std::size_t e = 0; e < all.size() && out.size() < kept.size();
         ++e) {
        if (sameBits(all[e], kept[out.size()]))
            out.push_back(e);
    }
    return out;
}

serve::ServeConfig
serialService()
{
    serve::ServeConfig sc;
    sc.workers = 1;
    return sc;
}

TEST(Sense, DropsRemoveWholeEpochsAtEveryPeriod)
{
    auto pool = threeDetectorPool();
    const std::uint32_t epoch = pool->decisionPeriod();
    FaultConfig config;
    config.dropWindowProb = 0.5;
    config.seed = 11;
    FaultInjector sensor(config);
    serve::DetectionService service(*pool, serialService());

    const auto &programs = sharedExperiment().corpus().programs;
    SenseReport report;
    std::size_t classified = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        const features::ProgramFeatures &prog = programs[i];
        const std::size_t dropped_before = report.dropped;
        const features::ProgramFeatures sensed = sensor.sense(
            prog, epoch, support::RetryPolicy{}, report);
        ASSERT_EQ(sensed.byPeriod.size(), prog.byPeriod.size());

        // At every period the sensed stream is the clean windows of
        // the surviving epochs, in order, bit for bit.
        const std::vector<std::size_t> survivors =
            survivingEpochs(prog, sensed, epoch);
        ASSERT_EQ(survivors.size(), sensed.windows(epoch).size());
        EXPECT_EQ(survivors.size() + report.dropped - dropped_before,
                  prog.windows(epoch).size());
        for (const auto &[period, clean] : prog.byPeriod) {
            const std::size_t per_epoch = epoch / period;
            const auto &got = sensed.windows(period);
            ASSERT_EQ(got.size(), survivors.size() * per_epoch)
                << "period " << period;
            std::size_t w = 0;
            for (std::size_t e : survivors) {
                for (std::size_t k = 0; k < per_epoch; ++k, ++w)
                    EXPECT_TRUE(
                        sameBits(got[w], clean[e * per_epoch + k]))
                        << "period " << period << " epoch " << e;
            }
        }

        const auto answer = service.submit(sensed, i).get();
        if (answer.isOk())
            classified += answer->classified;
        else
            EXPECT_TRUE(survivors.empty());  // every epoch dropped
    }
    EXPECT_GT(report.dropped, 0u);
    EXPECT_GT(classified, 0u);
    EXPECT_EQ(classified + report.dropped, report.epochs);
}

TEST(Sense, TransientReadsAreRetried)
{
    auto pool = threeDetectorPool();
    FaultConfig config;
    config.transientReadFailProb = 0.4;
    config.seed = 21;
    support::RetryPolicy retry;
    retry.maxAttempts = 6;
    FaultInjector sensor(config);
    serve::DetectionService service(*pool, serialService());

    const auto &programs = sharedExperiment().corpus().programs;
    SenseReport report;
    std::size_t classified = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        const features::ProgramFeatures sensed = sensor.sense(
            programs[i], pool->decisionPeriod(), retry, report);
        const auto answer = service.submit(sensed, i).get();
        ASSERT_TRUE(answer.isOk()) << answer.status().toString();
        classified += answer->classified;
    }
    EXPECT_GT(report.retry.retries, 0u);
    EXPECT_GT(report.retry.backoffSpent, 0.0);
    EXPECT_EQ(classified + report.dropped, report.epochs);
    // With 6 attempts at p=0.4 a read fails outright only 0.4% of
    // the time, so nearly every epoch survives.
    EXPECT_GE((report.epochs - report.dropped) * 100, report.epochs * 95);
}

TEST(Sense, ExhaustedRetriesLoseEveryEpochWithoutPanicking)
{
    auto pool = threeDetectorPool();
    FaultConfig config;
    config.transientReadFailProb = 1.0;
    support::RetryPolicy retry;
    retry.maxAttempts = 3;
    FaultInjector sensor(config);

    const auto &prog = sharedExperiment().corpus().programs[0];
    SenseReport report;
    const features::ProgramFeatures sensed =
        sensor.sense(prog, pool->decisionPeriod(), retry, report);
    EXPECT_EQ(report.epochs, prog.windows(pool->decisionPeriod()).size());
    EXPECT_EQ(report.dropped, report.epochs);
    EXPECT_EQ(report.retry.retries, 2 * report.epochs);
    // Every period key stays, empty, so the service can answer.
    ASSERT_EQ(sensed.byPeriod.size(), prog.byPeriod.size());
    for (const auto &entry : sensed.byPeriod)
        EXPECT_TRUE(entry.second.empty());

    serve::DetectionService service(*pool, serialService());
    const auto answer = service.submit(sensed, 0).get();
    ASSERT_FALSE(answer.isOk());
    EXPECT_EQ(answer.status().code(), support::StatusCode::Unavailable);
    EXPECT_NE(answer.status().message().find("could be classified"),
              std::string::npos);
}

TEST(Sense, NoisyWindowsStillClassifyEveryEpoch)
{
    auto pool = threeDetectorPool();
    FaultConfig config;
    config.counterNoiseSigma = 0.1;
    config.seed = 31;
    FaultInjector sensor(config);
    serve::DetectionService service(*pool, serialService());

    const auto &programs = sharedExperiment().corpus().programs;
    SenseReport report;
    for (std::size_t i = 0; i < 5; ++i) {
        const features::ProgramFeatures sensed = sensor.sense(
            programs[i], pool->decisionPeriod(), support::RetryPolicy{},
            report);
        const auto answer = service.submit(sensed, i).get();
        ASSERT_TRUE(answer.isOk()) << answer.status().toString();
        EXPECT_EQ(answer->epochs,
                  programs[i].windows(pool->decisionPeriod()).size());
        EXPECT_EQ(answer->classified, answer->epochs);
        EXPECT_EQ(answer->detectorFailures, 0u);
    }
    EXPECT_EQ(report.dropped, 0u);
}

TEST(Sense, CleanPoolSeparatesClassesThroughService)
{
    const core::Experiment &exp = sharedExperiment();
    auto pool = threeDetectorPool();
    FaultInjector sensor(FaultConfig{});
    serve::DetectionService service(*pool, serialService());

    std::uint64_t key = 0;
    SenseReport report;
    const auto rate = [&](const std::vector<std::size_t> &indices) {
        std::size_t detected = 0;
        for (std::size_t idx : indices) {
            const features::ProgramFeatures &prog =
                exp.corpus().programs[idx];
            const features::ProgramFeatures sensed = sensor.sense(
                prog, pool->decisionPeriod(), support::RetryPolicy{},
                report);
            // A fault-free sensor delivers the clean stream.
            EXPECT_EQ(survivingEpochs(prog, sensed, pool->decisionPeriod())
                          .size(),
                      prog.windows(pool->decisionPeriod()).size());
            const auto answer = service.submit(sensed, key++).get();
            EXPECT_TRUE(answer.isOk()) << answer.status().toString();
            if (answer.isOk() && answer->programDecision == 1)
                ++detected;
        }
        return static_cast<double>(detected) /
               static_cast<double>(indices.size());
    };
    const double sens = rate(exp.malwareOf(exp.split().attackerTest));
    const double fpr = rate(exp.benignOf(exp.split().attackerTest));
    EXPECT_GT(sens, fpr + 0.2);
    EXPECT_EQ(report.dropped, 0u);
    EXPECT_EQ(report.truncated, 0u);
}

// --- Recoverable Rhmd construction ---------------------------------

TEST(Runtime, InvalidPolicySurfacesAsStatus)
{
    const core::Experiment &exp = sharedExperiment();
    features::FeatureSpec spec;
    spec.kind = features::FeatureKind::Instructions;
    spec.period = 10000;
    core::HmdConfig config;
    config.algorithm = "LR";
    config.specs = {spec};
    auto det = std::make_unique<core::Hmd>(config);
    det->trainOnPrograms(exp.corpus(), exp.split().victimTrain);

    std::vector<std::unique_ptr<core::Hmd>> dets;
    dets.push_back(std::move(det));
    auto pool = core::tryMakeRhmd(std::move(dets), {0.5}, 1);
    ASSERT_FALSE(pool.isOk());
    EXPECT_EQ(pool.status().code(),
              support::StatusCode::InvalidArgument);
    EXPECT_NE(pool.status().message().find("sum to 1"),
              std::string::npos);
}

} // namespace

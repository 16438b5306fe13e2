/**
 * @file
 * Tests of the fault-tolerant deployment runtime: fault injection,
 * detector health monitoring, and graceful degradation of the pool.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/experiment.hh"
#include "core/rhmd.hh"
#include "runtime/fault_injection.hh"
#include "runtime/health.hh"
#include "runtime/runtime.hh"
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

std::unique_ptr<core::Rhmd>
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
    config.probationSuccesses = 3;
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

    // Clean scores graduate the detector back to healthy.
    monitor.recordSuccess(0);
    monitor.recordSuccess(0);
    EXPECT_EQ(monitor.health(0), DetectorHealth::Probation);
    monitor.recordSuccess(0);
    EXPECT_EQ(monitor.health(0), DetectorHealth::Healthy);

    // The structured log recorded the whole lifecycle in order.
    std::vector<HealthEvent::Kind> kinds;
    for (const auto &event : monitor.events())
        kinds.push_back(event.kind);
    const std::vector<HealthEvent::Kind> expected{
        HealthEvent::Kind::Failure, HealthEvent::Kind::Failure,
        HealthEvent::Kind::Quarantine, HealthEvent::Kind::Probation,
        HealthEvent::Kind::Recovery};
    EXPECT_EQ(kinds, expected);
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
    config.dropWindowProb = 0.2;
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
    EXPECT_DOUBLE_EQ(injector.perturbScore(0, 0.7), 0.7);
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

TEST(FaultInjector, BrokenDetectorScoresNan)
{
    FaultConfig config;
    config.brokenDetectors = {1};
    FaultInjector injector(config);
    EXPECT_DOUBLE_EQ(injector.perturbScore(0, 0.4), 0.4);
    EXPECT_TRUE(std::isnan(injector.perturbScore(1, 0.4)));
}

TEST(FaultInjector, CounterHookPerturbsMonitorReads)
{
    FaultConfig config;
    config.quantizeStep = 8;
    FaultInjector injector(config);

    uarch::PerfMonitor monitor;
    monitor.setReadHook(injector.counterHook());
    // No instructions stepped: raw counters are zero, and the
    // quantization hook keeps them zero.
    const uarch::EventCounts zeroes = monitor.read();
    for (std::uint64_t c : zeroes)
        EXPECT_EQ(c, 0u);

    // The hook is also directly applicable to a counter snapshot.
    uarch::EventCounts counts;
    counts.fill(13);
    injector.counterHook()(counts);
    for (std::uint64_t c : counts)
        EXPECT_EQ(c, 8u);
}

// --- DetectionRuntime ----------------------------------------------

TEST(Runtime, CleanRunClassifiesEveryEpoch)
{
    auto pool = threeDetectorPool();
    DetectionRuntime runtime(*pool, RuntimeConfig{});
    const auto &prog = sharedExperiment().corpus().programs[0];
    auto report = runtime.processProgram(prog);
    ASSERT_TRUE(report.isOk());
    EXPECT_EQ(report->epochs, prog.windows(10000).size());
    EXPECT_EQ(report->classified, report->epochs);
    EXPECT_EQ(report->dropped, 0u);
    EXPECT_EQ(report->detectorFailures, 0u);
    for (std::size_t i = 0; i < pool->poolSize(); ++i)
        EXPECT_EQ(runtime.health().health(i), DetectorHealth::Healthy);
}

TEST(Runtime, CleanRuntimeAgreesWithPoolAccuracy)
{
    const core::Experiment &exp = sharedExperiment();
    auto pool = threeDetectorPool();
    DetectionRuntime runtime(*pool, RuntimeConfig{});

    std::vector<const features::ProgramFeatures *> malware;
    for (std::size_t idx : exp.malwareOf(exp.split().attackerTest))
        malware.push_back(&exp.corpus().programs[idx]);
    std::vector<const features::ProgramFeatures *> benign;
    for (std::size_t idx : exp.benignOf(exp.split().attackerTest))
        benign.push_back(&exp.corpus().programs[idx]);

    const double sens = runtime.detectionRate(malware);
    const double fpr = runtime.detectionRate(benign);
    EXPECT_GT(sens, fpr + 0.2);
}

TEST(Runtime, DroppedWindowsSkipEpochsWithoutAborting)
{
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    config.faults.dropWindowProb = 0.5;
    config.faults.seed = 11;
    DetectionRuntime runtime(*pool, config);

    std::size_t classified = 0;
    std::size_t dropped = 0;
    std::size_t epochs = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        const auto &prog = sharedExperiment().corpus().programs[i];
        auto report = runtime.processProgram(prog);
        if (!report.isOk())
            continue;  // every window of one program can drop
        classified += report->classified;
        dropped += report->dropped;
        epochs += report->epochs;
    }
    EXPECT_GT(dropped, 0u);
    EXPECT_GT(classified, 0u);
    EXPECT_EQ(classified + dropped, epochs);
}

TEST(Runtime, BrokenDetectorIsQuarantinedAndPoolDegrades)
{
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    config.health.failureThreshold = 3;
    config.health.quarantineEpochs = 1000000;  // no probation here
    config.faults.brokenDetectors = {0};
    DetectionRuntime runtime(*pool, config);

    const auto &corpus = sharedExperiment().corpus();
    std::size_t classified = 0;
    for (std::size_t i = 0; i < 10; ++i) {
        auto report = runtime.processProgram(corpus.programs[i]);
        ASSERT_TRUE(report.isOk());
        classified += report->classified;
        // Failover: every epoch still produces a decision.
        EXPECT_EQ(report->classified, report->epochs);
    }
    EXPECT_GT(classified, 0u);
    EXPECT_EQ(runtime.health().health(0), DetectorHealth::Quarantined);
    EXPECT_EQ(runtime.health().health(1), DetectorHealth::Healthy);
    EXPECT_EQ(runtime.health().health(2), DetectorHealth::Healthy);

    // The log shows the failure streak and the quarantine.
    bool sawQuarantine = false;
    for (const auto &event : runtime.health().events())
        sawQuarantine |= event.kind == HealthEvent::Kind::Quarantine;
    EXPECT_TRUE(sawQuarantine);

    // After quarantine the broken detector stops being selected:
    // its selection count stays near the failure threshold.
    EXPECT_LT(runtime.selectionCounts()[0],
              runtime.selectionCounts()[1] / 2 + 10);
}

TEST(Runtime, WholePoolFailureIsAnErrorNotAnAbort)
{
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    config.health.failureThreshold = 1;
    config.health.quarantineEpochs = 1000000;
    config.faults.brokenDetectors = {0, 1, 2};
    DetectionRuntime runtime(*pool, config);

    const auto &prog = sharedExperiment().corpus().programs[0];
    auto report = runtime.processProgram(prog);
    ASSERT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(),
              support::StatusCode::Unavailable);
    EXPECT_EQ(runtime.health().quarantinedCount(), 3u);
    EXPECT_EQ(runtime.failedPrograms(), 1u);
}

TEST(Runtime, NeverQuarantineThresholdStillClassifiesEveryEpoch)
{
    // pool size * threshold wraps to 0 in 64-bit arithmetic; the
    // capped failover budget must still allow every epoch its draw.
    auto pool = twoDetectorPool();
    RuntimeConfig config;
    config.health.failureThreshold = std::size_t{1} << 63;
    DetectionRuntime runtime(*pool, config);

    const auto &prog = sharedExperiment().corpus().programs[0];
    auto report = runtime.processProgram(prog);
    ASSERT_TRUE(report.isOk()) << report.status().toString();
    EXPECT_EQ(report->classified, report->epochs);
    EXPECT_EQ(report->detectorFailures, 0u);
}

TEST(Runtime, BrokenPoolRedrawsAreCappedPerEpoch)
{
    // A threshold no epoch can reach never quarantines, so a fully
    // broken pool redraws each epoch until the capped budget runs out
    // instead of pool size * threshold times.
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    config.health.failureThreshold = 1u << 12;
    config.faults.brokenDetectors = {0, 1, 2};
    DetectionRuntime runtime(*pool, config);

    const auto &prog = sharedExperiment().corpus().programs[0];
    auto report = runtime.processProgram(prog);
    ASSERT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(),
              support::StatusCode::Unavailable);
    std::size_t failures = 0;
    for (std::size_t i = 0; i < pool->poolSize(); ++i)
        failures += runtime.health().failureCount(i);
    EXPECT_EQ(failures,
              kMaxFailoverAttempts * prog.windows(10000).size());
    EXPECT_EQ(runtime.health().quarantinedCount(), 0u);
}

TEST(Runtime, TransientSensorFailuresAreRetried)
{
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    config.faults.transientReadFailProb = 0.4;
    config.faults.seed = 21;
    config.sensorRetry.maxAttempts = 6;
    DetectionRuntime runtime(*pool, config);

    const auto &corpus = sharedExperiment().corpus();
    std::size_t classified = 0;
    std::size_t retries = 0;
    std::size_t epochs = 0;
    for (std::size_t i = 0; i < 5; ++i) {
        auto report = runtime.processProgram(corpus.programs[i]);
        ASSERT_TRUE(report.isOk());
        classified += report->classified;
        retries += report->sensorRetries;
        epochs += report->epochs;
    }
    EXPECT_GT(retries, 0u);
    // With 6 attempts at p=0.4 a read fails outright only 0.4% of
    // the time, so nearly every epoch classifies.
    EXPECT_GE(classified * 100, epochs * 95);
}

TEST(Runtime, ExhaustedRetriesLoseTheEpoch)
{
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    config.faults.transientReadFailProb = 1.0;
    config.sensorRetry.maxAttempts = 3;
    DetectionRuntime runtime(*pool, config);

    const auto &prog = sharedExperiment().corpus().programs[0];
    auto report = runtime.processProgram(prog);
    ASSERT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(),
              support::StatusCode::Unavailable);
}

TEST(Runtime, NoisyWindowsStillClassify)
{
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    config.faults.counterNoiseSigma = 0.1;
    config.faults.quantizeStep = 4;
    config.faults.seed = 31;
    DetectionRuntime runtime(*pool, config);

    const auto &corpus = sharedExperiment().corpus();
    for (std::size_t i = 0; i < 5; ++i) {
        auto report = runtime.processProgram(corpus.programs[i]);
        ASSERT_TRUE(report.isOk());
        EXPECT_EQ(report->classified, report->epochs);
        EXPECT_EQ(report->detectorFailures, 0u);
    }
}

TEST(Runtime, DetectionRateCountsFailedProgramsAsNotDetected)
{
    auto pool = threeDetectorPool();
    RuntimeConfig config;
    // Every sensor read fails permanently: every program's run ends
    // in an error, and the fail-open aggregate must report them as
    // not-detected instead of aborting or skipping them silently.
    config.faults.transientReadFailProb = 1.0;
    config.sensorRetry.maxAttempts = 2;
    DetectionRuntime runtime(*pool, config);

    const core::Experiment &exp = sharedExperiment();
    std::vector<const features::ProgramFeatures *> malware;
    for (std::size_t idx : exp.malwareOf(exp.split().attackerTest))
        malware.push_back(&exp.corpus().programs[idx]);
    ASSERT_FALSE(malware.empty());

    EXPECT_DOUBLE_EQ(runtime.detectionRate(malware), 0.0);
    EXPECT_EQ(runtime.failedPrograms(), malware.size());
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

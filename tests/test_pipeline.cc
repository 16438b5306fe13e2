/**
 * @file
 * Tests of the closed-loop online retraining pipeline (DESIGN.md
 * §16): drift detection over served-request signals, flight-recorder
 * capture through the RHMD-CORPUS spool (bit-exact round trip),
 * thread-count-invariant candidate retraining, the shadow lane, and
 * the drift→retrain→shadow→promote state machine including gate
 * rejections that must leave the serving version untouched.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/retrainer.hh"
#include "core/rhmd.hh"
#include "ml/serialize.hh"
#include "pipeline/drift.hh"
#include "pipeline/pipeline.hh"
#include "pipeline/recorder.hh"
#include "serve/service.hh"
#include "support/parallel.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::pipeline;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

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

std::vector<features::FeatureSpec>
poolSpecs()
{
    std::vector<features::FeatureSpec> specs(3);
    specs[0].kind = features::FeatureKind::Instructions;
    specs[0].period = 10000;
    specs[1].kind = features::FeatureKind::Memory;
    specs[1].period = 10000;
    specs[2].kind = features::FeatureKind::Architectural;
    specs[2].period = 5000;
    return specs;
}

std::shared_ptr<const core::Rhmd>
threeDetectorPool(std::uint64_t seed = 5)
{
    const core::Experiment &exp = sharedExperiment();
    return core::buildRhmd("LR", poolSpecs(), exp.corpus(),
                           exp.split().victimTrain, 16, seed);
}

DriftObservation
benignObs(double margin)
{
    DriftObservation obs;
    obs.programDecision = 0;
    obs.meanMargin = margin;
    return obs;
}

/** The serialized bytes of every detector model in @p pool. */
std::vector<std::string>
serializedDetectors(const core::Rhmd &pool)
{
    std::vector<std::string> out;
    for (const auto &det : pool.detectors()) {
        std::ostringstream os;
        EXPECT_TRUE(ml::trySaveModel(det->classifier(), os).isOk());
        out.push_back(os.str());
    }
    return out;
}

// --- Drift detector -------------------------------------------------

TEST(Drift, ConfidentBenignStreamNeverDrifts)
{
    DriftConfig config;
    config.window = 16;
    config.minObservations = 8;
    DriftDetector drift(config);
    for (int i = 0; i < 100; ++i)
        drift.observe(benignObs(0.4));
    EXPECT_FALSE(drift.drifted());
    EXPECT_EQ(drift.stats().suspects, 0u);
    EXPECT_EQ(drift.stats().observations, 16u);
}

TEST(Drift, MarginCollapseFiresOnlyAfterMinObservations)
{
    DriftConfig config;
    config.window = 16;
    config.minObservations = 8;
    config.marginFloor = 0.05;
    config.suspectRateThreshold = 0.5;
    DriftDetector drift(config);
    // Every observation is a suspect, but the verdict must wait for
    // the window to hold minObservations.
    for (int i = 0; i < 7; ++i) {
        drift.observe(benignObs(0.01));
        EXPECT_FALSE(drift.drifted()) << "fired at observation " << i;
    }
    drift.observe(benignObs(0.01));
    EXPECT_TRUE(drift.drifted());
    EXPECT_EQ(drift.stats().suspects, 8u);

    // reset() forgets the window entirely.
    drift.reset();
    EXPECT_FALSE(drift.drifted());
    EXPECT_EQ(drift.stats().observations, 0u);
}

TEST(Drift, SuspectsSlideOutOfTheWindow)
{
    DriftConfig config;
    config.window = 8;
    config.minObservations = 4;
    config.marginFloor = 0.05;
    config.suspectRateThreshold = 0.5;
    DriftDetector drift(config);
    for (int i = 0; i < 8; ++i)
        drift.observe(benignObs(0.01));
    EXPECT_TRUE(drift.drifted());
    // A confident stream pushes the collapsed margins out again.
    for (int i = 0; i < 8; ++i)
        drift.observe(benignObs(0.4));
    EXPECT_FALSE(drift.drifted());
}

TEST(Drift, MalwareAndDegradedDecisionsAreNeverSuspects)
{
    DriftConfig config;
    config.marginFloor = 0.5;
    DriftDetector drift(config);
    DriftObservation malware = benignObs(0.01);
    malware.programDecision = 1;
    EXPECT_FALSE(drift.suspect(malware));
    DriftObservation degraded = benignObs(0.01);
    degraded.degraded = true;
    EXPECT_FALSE(drift.suspect(degraded));
    EXPECT_TRUE(drift.suspect(benignObs(0.01)));
}

TEST(Drift, FailoverRateFiresIndependentlyOfMargins)
{
    DriftConfig config;
    config.window = 8;
    config.minObservations = 4;
    config.marginFloor = 0.0; // no margin suspect can ever fire
    config.failureRateThreshold = 2.0;
    DriftDetector drift(config);
    DriftObservation failing = benignObs(0.4);
    failing.detectorFailures = 3;
    for (int i = 0; i < 4; ++i)
        drift.observe(failing);
    EXPECT_TRUE(drift.drifted());
    EXPECT_EQ(drift.stats().suspects, 0u);
    EXPECT_DOUBLE_EQ(drift.stats().failureRate, 3.0);
}

// --- Flight recorder ------------------------------------------------

TEST(Recorder, SpoolRoundTripIsBitExact)
{
    const core::Experiment &exp = sharedExperiment();
    RecorderConfig config;
    config.path = tempPath("recorder_roundtrip.rhmdc");
    config.periods = exp.corpus().periods;
    FlightRecorder recorder(config);

    EXPECT_TRUE(recorder.empty());
    // Draining an empty cycle is a precondition failure, not a crash.
    EXPECT_EQ(recorder.drain().status().code(),
              support::StatusCode::FailedPrecondition);

    const std::vector<std::size_t> flagged_idx = {0, 3, 17};
    for (std::size_t idx : flagged_idx)
        ASSERT_TRUE(
            recorder.flag(exp.corpus().programs[idx]).isOk());
    EXPECT_EQ(recorder.programCount(), flagged_idx.size());

    const auto drained = recorder.drain();
    ASSERT_TRUE(drained.isOk()) << drained.status().toString();
    EXPECT_NE(recorder.lastContentHash(), 0u);
    ASSERT_EQ(drained->programs.size(), flagged_idx.size());
    for (std::size_t i = 0; i < flagged_idx.size(); ++i) {
        const features::ProgramFeatures &orig =
            exp.corpus().programs[flagged_idx[i]];
        const features::ProgramFeatures &copy = drained->programs[i];
        for (std::uint32_t period : config.periods) {
            const auto &a = orig.windows(period);
            const auto &b = copy.windows(period);
            ASSERT_EQ(a.size(), b.size());
            for (std::size_t w = 0; w < a.size(); ++w) {
                EXPECT_EQ(a[w].opcodeCounts, b[w].opcodeCounts);
                EXPECT_EQ(a[w].memDeltaBins, b[w].memDeltaBins);
                EXPECT_EQ(a[w].events, b[w].events);
                EXPECT_EQ(a[w].instCount, b[w].instCount);
                EXPECT_EQ(std::bit_cast<std::uint64_t>(a[w].cycles),
                          std::bit_cast<std::uint64_t>(b[w].cycles));
                EXPECT_EQ(
                    std::bit_cast<std::uint64_t>(a[w].injectedFrac),
                    std::bit_cast<std::uint64_t>(b[w].injectedFrac));
                EXPECT_EQ(a[w].truncated, b[w].truncated);
            }
        }
    }
    // The drain started a fresh cycle.
    EXPECT_TRUE(recorder.empty());
    std::remove(config.path.c_str());
}

TEST(Recorder, CaptureCeilingDropsAndCounts)
{
    const core::Experiment &exp = sharedExperiment();
    const auto &programs = exp.corpus().programs;
    RecorderConfig config;
    config.path = tempPath("recorder_ceiling.rhmdc");
    config.periods = exp.corpus().periods;
    FlightRecorder recorder(config);
    // Flag kRecorderMaxPrograms suspects, cycling through the corpus,
    // then one more.
    for (std::size_t i = 0; i < kRecorderMaxPrograms; ++i)
        ASSERT_TRUE(recorder.flag(programs[i % programs.size()]).isOk());
    EXPECT_EQ(recorder.flag(programs[0]).code(),
              support::StatusCode::Unavailable);
    EXPECT_EQ(recorder.programCount(), kRecorderMaxPrograms);
    EXPECT_EQ(recorder.droppedPrograms(), 1u);
    // The ceiling bounds the cycle, not the recorder: draining
    // re-arms capture.
    ASSERT_TRUE(recorder.drain().isOk());
    EXPECT_TRUE(recorder.flag(programs[0]).isOk());
    EXPECT_EQ(recorder.droppedPrograms(), 0u);
    std::remove(config.path.c_str());
}

// --- Candidate retraining -------------------------------------------

TEST(RetrainPool, BitIdenticalAcrossThreadCountsUnderServingLoad)
{
    const core::Experiment &exp = sharedExperiment();
    core::PoolRetrainConfig config;
    config.algorithm = "LR";
    config.specs = poolSpecs();
    config.seed = 0x5eed;
    config.generation = 3;
    const std::vector<features::ProgramFeatures> flagged = {
        exp.corpus().programs[1], exp.corpus().programs[2]};

    support::setGlobalThreads(1);
    const auto serial = core::retrainPool(
        exp.corpus(), exp.split().victimTrain, flagged, config);
    ASSERT_TRUE(serial.isOk()) << serial.status().toString();

    // The parallel retrain runs while a service is actively serving —
    // the deterministic thread pool and the serving workers must not
    // perturb each other's outcomes.
    support::setGlobalThreads(4);
    serve::ServeConfig sc;
    sc.workers = 2;
    serve::DetectionService service(threeDetectorPool(), sc);
    std::vector<std::future<support::StatusOr<serve::ServeReport>>>
        futures;
    for (std::uint64_t key = 0; key < 32; ++key)
        futures.push_back(service.submit(
            exp.corpus().programs[key % exp.corpus().programs.size()],
            key));
    const auto parallel = core::retrainPool(
        exp.corpus(), exp.split().victimTrain, flagged, config);
    for (auto &future : futures)
        EXPECT_TRUE(future.get().isOk());
    support::setGlobalThreads(0);
    ASSERT_TRUE(parallel.isOk()) << parallel.status().toString();

    ASSERT_EQ((*serial)->poolSize(), (*parallel)->poolSize());
    const std::vector<std::string> a = serializedDetectors(**serial);
    const std::vector<std::string> b = serializedDetectors(**parallel);
    EXPECT_EQ(a, b);
    for (std::size_t i = 0; i < (*serial)->poolSize(); ++i)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(
                      (*serial)->detectors()[i]->threshold()),
                  std::bit_cast<std::uint64_t>(
                      (*parallel)->detectors()[i]->threshold()));
    EXPECT_EQ((*serial)->policy(), (*parallel)->policy());
}

TEST(RetrainPool, GenerationsTrainOnIndependentSeedStreams)
{
    const core::Experiment &exp = sharedExperiment();
    core::PoolRetrainConfig config;
    config.algorithm = "LR";
    config.specs = poolSpecs();
    const auto gen1 = core::retrainPool(
        exp.corpus(), exp.split().victimTrain, {}, config);
    config.generation = 1;
    const auto gen2 = core::retrainPool(
        exp.corpus(), exp.split().victimTrain, {}, config);
    ASSERT_TRUE(gen1.isOk() && gen2.isOk());
    EXPECT_NE(serializedDetectors(**gen1),
              serializedDetectors(**gen2));
}

TEST(RetrainPool, RejectsEmptySpecsAndBadIndices)
{
    const core::Experiment &exp = sharedExperiment();
    core::PoolRetrainConfig config;
    EXPECT_EQ(core::retrainPool(exp.corpus(),
                                exp.split().victimTrain, {}, config)
                  .status()
                  .code(),
              support::StatusCode::InvalidArgument);
    config.specs = poolSpecs();
    EXPECT_EQ(core::retrainPool(exp.corpus(),
                                {exp.corpus().programs.size()}, {},
                                config)
                  .status()
                  .code(),
              support::StatusCode::InvalidArgument);
}

// --- Shadow lane ----------------------------------------------------

TEST(ShadowLane, TwinCandidateAgreesOnEveryRequest)
{
    const core::Experiment &exp = sharedExperiment();
    serve::ServeConfig sc;
    sc.workers = 2;
    serve::DetectionService service(threeDetectorPool(), sc);
    EXPECT_FALSE(service.shadowActive());
    EXPECT_FALSE(service.installShadow(nullptr).isOk());

    // An identically-trained twin must reproduce every live decision:
    // the shadow lane replays the same per-key switching stream.
    ASSERT_TRUE(service.installShadow(threeDetectorPool()).isOk());
    EXPECT_TRUE(service.shadowActive());
    std::vector<std::future<support::StatusOr<serve::ServeReport>>>
        futures;
    for (std::uint64_t key = 0; key < 24; ++key)
        futures.push_back(service.submit(
            exp.corpus().programs[key % exp.corpus().programs.size()],
            key));
    for (auto &future : futures)
        ASSERT_TRUE(future.get().isOk());

    const serve::ShadowStats stats = service.shadowStats();
    EXPECT_EQ(stats.requests, 24u);
    EXPECT_EQ(stats.agreements, 24u);
    EXPECT_EQ(stats.shadowMalware, stats.liveMalware);

    service.clearShadow();
    EXPECT_FALSE(service.shadowActive());
    // Stats stay readable after clearing.
    EXPECT_EQ(service.shadowStats().requests, 24u);
}

// --- The closed loop ------------------------------------------------

PipelineConfig
loopConfig(const std::string &spool)
{
    const core::Experiment &exp = sharedExperiment();
    PipelineConfig pc;
    pc.drift.window = 64;
    pc.drift.minObservations = 4;
    pc.drift.suspectRateThreshold = 0.25;
    pc.drift.failureRateThreshold = 1e9;
    pc.retrain.algorithm = "LR";
    pc.retrain.specs = poolSpecs();
    pc.recorder.path = tempPath(spool);
    pc.recorder.periods = exp.corpus().periods;
    pc.shadowMinRequests = 8;
    return pc;
}

/** Serve @p count requests and fold every report into @p loop. */
void
serveAndObserve(serve::DetectionService &service, RetrainPipeline &loop,
                std::uint64_t &next_key, std::size_t count)
{
    const core::Experiment &exp = sharedExperiment();
    std::vector<std::future<support::StatusOr<serve::ServeReport>>>
        futures;
    std::vector<const features::ProgramFeatures *> progs;
    for (std::size_t i = 0; i < count; ++i) {
        progs.push_back(
            &exp.corpus()
                 .programs[next_key % exp.corpus().programs.size()]);
        futures.push_back(service.submit(*progs.back(), next_key++));
    }
    for (std::size_t i = 0; i < count; ++i) {
        const auto report = futures[i].get();
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        loop.observe(*progs[i], *report);
    }
}

TEST(Pipeline, AllBenignStreamNeverRetrains)
{
    const core::Experiment &exp = sharedExperiment();
    serve::ServeConfig sc;
    sc.workers = 2;
    serve::DetectionService service(threeDetectorPool(), sc);
    PipelineConfig pc = loopConfig("loop_benign.rhmdc");
    // Margins can never collapse below an impossible floor, so no
    // request is ever a suspect and the loop must idle.
    pc.drift.marginFloor = -1.0;
    RetrainPipeline loop(service, exp.corpus(),
                         exp.split().victimTrain, pc);

    std::uint64_t next_key = 0;
    serveAndObserve(service, loop, next_key, 32);
    const auto step = loop.step();
    ASSERT_TRUE(step.isOk()) << step.status().toString();
    EXPECT_FALSE(step->driftFired);
    EXPECT_FALSE(step->retrained);
    EXPECT_EQ(step->poolVersion, 1u);
    EXPECT_EQ(loop.generation(), 0u);
    EXPECT_EQ(loop.phase(), RetrainPipeline::Phase::Monitoring);
    EXPECT_EQ(service.poolVersion(), 1u);
    EXPECT_EQ(loop.candidatePool(), nullptr);
    std::remove(pc.recorder.path.c_str());
}

TEST(Pipeline, QuarantineFiresDriftWithoutSuspects)
{
    const core::Experiment &exp = sharedExperiment();
    // Detector 0 fails every score, and its first failure quarantines
    // it for good.
    serve::ServeConfig sc;
    sc.workers = 1;
    sc.health.failureThreshold = 1;
    sc.health.quarantineEpochs = 1u << 20;
    sc.chaos.brokenDetectors = {0};
    serve::DetectionService service(threeDetectorPool(), sc);
    PipelineConfig pc = loopConfig("loop_quarantine.rhmdc");
    // No request is a suspect and the fail-over rate never fires, so
    // the quarantine in the serving snapshot is the only drift signal.
    pc.drift.marginFloor = -1.0;
    RetrainPipeline loop(service, exp.corpus(),
                         exp.split().victimTrain, pc);

    std::uint64_t next_key = 0;
    serveAndObserve(service, loop, next_key, 8);
    ASSERT_EQ(service.healthSnapshot().quarantinedCount(), 1u);
    EXPECT_EQ(loop.driftStats().suspects, 0u);
    const auto step = loop.step();
    ASSERT_TRUE(step.isOk()) << step.status().toString();
    EXPECT_TRUE(step->driftFired);
    EXPECT_FALSE(step->retrained);
    EXPECT_EQ(step->gate.code(),
              support::StatusCode::FailedPrecondition);
    EXPECT_NE(step->gate.message().find("no captured suspects"),
              std::string::npos);
    EXPECT_EQ(loop.generation(), 0u);
    EXPECT_EQ(loop.phase(), RetrainPipeline::Phase::Monitoring);
    EXPECT_EQ(service.poolVersion(), 1u);
    std::remove(pc.recorder.path.c_str());
}

TEST(Pipeline, WorseCandidateIsRejectedAndVersionUntouched)
{
    const core::Experiment &exp = sharedExperiment();
    serve::ServeConfig sc;
    sc.workers = 2;
    // PAC gate on: the incumbent's three-detector floor is positive.
    sc.gate.corpus = &exp.corpus();
    sc.gate.testIdx = exp.split().attackerTest;
    serve::DetectionService service(threeDetectorPool(), sc);

    PipelineConfig pc = loopConfig("loop_worse.rhmdc");
    // Every benign-decided request is a suspect: drift fires as soon
    // as the window is warm.
    pc.drift.marginFloor = 1e9;
    // One retrain spec → a single-detector candidate → deterministic
    // selection → Theorem-1 floor exactly zero → the gate must reject.
    pc.retrain.specs = {poolSpecs()[0]};
    RetrainPipeline loop(service, exp.corpus(),
                         exp.split().victimTrain, pc);

    std::uint64_t next_key = 0;
    serveAndObserve(service, loop, next_key, 16);
    const auto retrain_step = loop.step();
    ASSERT_TRUE(retrain_step.isOk())
        << retrain_step.status().toString();
    EXPECT_TRUE(retrain_step->driftFired);
    ASSERT_TRUE(retrain_step->retrained);
    EXPECT_GT(retrain_step->flaggedPrograms, 0u);
    EXPECT_EQ(loop.phase(), RetrainPipeline::Phase::Shadowing);
    EXPECT_TRUE(service.shadowActive());

    serveAndObserve(service, loop, next_key, 16);
    const auto promote_step = loop.step();
    ASSERT_TRUE(promote_step.isOk())
        << promote_step.status().toString();
    EXPECT_TRUE(promote_step->shadowEvaluated);
    EXPECT_FALSE(promote_step->promoted);
    EXPECT_FALSE(promote_step->gate.isOk());
    EXPECT_EQ(promote_step->poolVersion, 1u);
    EXPECT_EQ(service.poolVersion(), 1u);
    EXPECT_FALSE(service.shadowActive());
    EXPECT_EQ(loop.phase(), RetrainPipeline::Phase::Monitoring);
    std::remove(pc.recorder.path.c_str());
}

TEST(Pipeline, DriftWithoutCapturesReArmsInsteadOfRetraining)
{
    const core::Experiment &exp = sharedExperiment();
    serve::ServeConfig sc;
    sc.workers = 1;
    serve::DetectionService service(threeDetectorPool(), sc);
    PipelineConfig pc = loopConfig("loop_nocapture.rhmdc");
    pc.drift.marginFloor = -1.0;  // nothing is ever captured…
    pc.drift.failureRateThreshold = 1.0; // …but failovers still fire
    RetrainPipeline failing_loop(service, exp.corpus(),
                                 exp.split().victimTrain, pc);

    serve::ServeReport fake;
    fake.programDecision = 0;
    fake.meanMargin = 0.4;
    fake.detectorFailures = 1u << 10;
    for (int i = 0; i < 8; ++i)
        failing_loop.observe(exp.corpus().programs[0], fake);
    const auto step = failing_loop.step();
    ASSERT_TRUE(step.isOk());
    EXPECT_TRUE(step->driftFired);
    EXPECT_FALSE(step->retrained);
    EXPECT_EQ(step->gate.code(),
              support::StatusCode::FailedPrecondition);
    // The window was cleared so the verdict re-arms on fresh traffic.
    EXPECT_EQ(failing_loop.driftStats().observations, 0u);
    std::remove(pc.recorder.path.c_str());
}

} // namespace

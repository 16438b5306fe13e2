/**
 * @file
 * Tests of the batched detection service: the bounded request queue,
 * request-keyed determinism, load shedding, and the batch scoring
 * APIs the service rides on (Classifier::scoreBatch,
 * Hmd::scoreWindows, Rhmd::decideBatch).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "core/experiment.hh"
#include "core/rhmd.hh"
#include "ml/serialize.hh"
#include "serve/service.hh"
#include "support/bounded_queue.hh"

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

/**
 * The decisions the service must produce for (program, key): replay
 * its per-request switching stream serially against the pool. This is
 * the request-keyed determinism contract of DESIGN.md section 11.
 */
std::vector<int>
replayDecisions(const core::Rhmd &pool, std::uint64_t seed,
                const features::ProgramFeatures &prog, std::uint64_t key)
{
    const std::uint32_t epoch_len = pool.decisionPeriod();
    const std::size_t n_epochs = prog.windows(epoch_len).size();
    Rng rng = SplitRng(seed).at(key);
    std::vector<int> out;
    for (std::size_t e = 0; e < n_epochs; ++e) {
        const std::size_t pick = rng.weightedIndex(pool.policy());
        const core::Hmd &det = *pool.detectors()[pick];
        const std::size_t index =
            e * (epoch_len / det.decisionPeriod());
        const double score =
            det.windowScore(prog.windows(det.decisionPeriod())[index]);
        out.push_back(score >= det.threshold() ? 1 : 0);
    }
    return out;
}

// --- BoundedQueue --------------------------------------------------

TEST(BoundedQueue, TryPushShedsWhenFullAndReportsDepth)
{
    support::BoundedQueue<int> queue(2);
    std::size_t depth = 0;
    EXPECT_TRUE(queue.tryPush(1, &depth));
    EXPECT_EQ(depth, 1u);
    EXPECT_TRUE(queue.tryPush(2, &depth));
    EXPECT_EQ(depth, 2u);
    // Full: the shed path; the queue is unchanged.
    EXPECT_FALSE(queue.tryPush(3));
    EXPECT_EQ(queue.size(), 2u);

    std::vector<int> out;
    EXPECT_EQ(queue.popBatch(out, 8), 2u);
    EXPECT_EQ(out, (std::vector<int>{1, 2}));
    // Space again: admission resumes.
    EXPECT_TRUE(queue.tryPush(4));
}

TEST(BoundedQueue, PopBatchRespectsMaxBatch)
{
    support::BoundedQueue<int> queue(8);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(queue.tryPush(std::move(i)));
    std::vector<int> out;
    EXPECT_EQ(queue.popBatch(out, 3), 3u);
    EXPECT_EQ(out, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(queue.popBatch(out, 3), 2u);
    EXPECT_EQ(out, (std::vector<int>{3, 4}));
}

TEST(BoundedQueue, CloseDrainsPendingThenSignalsExit)
{
    support::BoundedQueue<int> queue(4);
    ASSERT_TRUE(queue.tryPush(7));
    ASSERT_TRUE(queue.tryPush(8));
    queue.close();
    EXPECT_TRUE(queue.closed());
    // No admission after close.
    EXPECT_FALSE(queue.tryPush(9));
    // Pending elements still drain; then 0 = consumer exit signal.
    std::vector<int> out;
    EXPECT_EQ(queue.popBatch(out, 8), 2u);
    EXPECT_EQ(out, (std::vector<int>{7, 8}));
    EXPECT_EQ(queue.popBatch(out, 8), 0u);
}

TEST(BoundedQueue, ConsumerBlocksUntilWorkArrives)
{
    support::BoundedQueue<int> queue(4);
    std::vector<int> out;
    std::thread consumer(
        [&] { EXPECT_EQ(queue.popBatch(out, 4), 1u); });
    ASSERT_TRUE(queue.tryPush(42));
    consumer.join();
    EXPECT_EQ(out, (std::vector<int>{42}));
}

TEST(BoundedQueue, MovesElementsWithoutCopying)
{
    // Move-only elements compile and round-trip: the queue never
    // copies, which is what lets promise-bearing requests flow
    // through it.
    support::BoundedQueue<std::unique_ptr<int>> queue(2);
    ASSERT_TRUE(queue.tryPush(std::make_unique<int>(5)));
    std::vector<std::unique_ptr<int>> out;
    ASSERT_EQ(queue.popBatch(out, 2), 1u);
    ASSERT_NE(out[0], nullptr);
    EXPECT_EQ(*out[0], 5);
}

// --- DetectionService ----------------------------------------------

TEST(Serve, MatchesSerialReplay)
{
    const core::Experiment &exp = sharedExperiment();
    auto pool = threeDetectorPool();
    ServeConfig sc;
    sc.workers = 1;
    sc.maxBatch = 16;
    DetectionService service(*pool, sc);

    const auto &programs = exp.corpus().programs;
    std::vector<std::future<support::StatusOr<ServeReport>>> futures;
    futures.reserve(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i)
        futures.push_back(service.submit(programs[i], i));

    for (std::size_t i = 0; i < programs.size(); ++i) {
        auto report = futures[i].get();
        ASSERT_TRUE(report.isOk()) << report.status().toString();
        const std::vector<int> expected =
            replayDecisions(*pool, sc.seed, programs[i], i);
        EXPECT_EQ(report->decisions, expected);
        EXPECT_EQ(report->epochs, expected.size());
        EXPECT_EQ(report->classified, expected.size());
        EXPECT_EQ(report->detectorFailures, 0u);
        // Majority vote, ties flagged as malware.
        std::size_t votes = 0;
        for (int d : expected)
            votes += d != 0 ? 1 : 0;
        EXPECT_EQ(report->programDecision,
                  2 * votes >= expected.size() ? 1 : 0);
    }
    service.stop();
    for (std::size_t d = 0; d < pool->poolSize(); ++d)
        EXPECT_EQ(service.health().health(d),
                  runtime::DetectorHealth::Healthy);
}

TEST(Serve, DecisionsIndependentOfOrderBatchAndWorkers)
{
    const core::Experiment &exp = sharedExperiment();
    auto pool = threeDetectorPool();
    const auto &programs = exp.corpus().programs;

    // Same seed, maximally different schedules: single requests on
    // one worker versus big batches on four workers with reversed
    // submission order. Answers are keyed, so they must agree.
    const auto collect = [&](ServeConfig sc, bool reversed) {
        DetectionService service(*pool, sc);
        std::vector<std::future<support::StatusOr<ServeReport>>>
            futures(programs.size());
        for (std::size_t n = 0; n < programs.size(); ++n) {
            const std::size_t i =
                reversed ? programs.size() - 1 - n : n;
            futures[i] = service.submit(programs[i], i);
        }
        std::vector<std::vector<int>> decisions(programs.size());
        for (std::size_t i = 0; i < programs.size(); ++i) {
            auto report = futures[i].get();
            EXPECT_TRUE(report.isOk()) << report.status().toString();
            if (report.isOk())
                decisions[i] = std::move(report->decisions);
        }
        return decisions;
    };

    ServeConfig serial;
    serial.workers = 1;
    serial.maxBatch = 1;
    ServeConfig batched;
    batched.workers = 4;
    batched.maxBatch = 64;
    EXPECT_EQ(collect(serial, false), collect(batched, true));
}

TEST(Serve, ResubmittedKeyReplaysTheSameDecisions)
{
    auto pool = threeDetectorPool();
    DetectionService service(*pool, ServeConfig{});
    const auto &prog = sharedExperiment().corpus().programs[3];

    auto first = service.submit(prog, 1234).get();
    auto again = service.submit(prog, 1234).get();
    auto other = service.submit(prog, 1235).get();
    ASSERT_TRUE(first.isOk());
    ASSERT_TRUE(again.isOk());
    ASSERT_TRUE(other.isOk());
    // The switching stream is a pure function of (seed, key): the
    // same key replays, and the service holds no per-key state that
    // a different key could perturb.
    EXPECT_EQ(first->decisions, again->decisions);
}

TEST(Serve, DistinctSeedsSteerDistinctStreams)
{
    auto pool = threeDetectorPool();
    const auto &programs = sharedExperiment().corpus().programs;

    // Over all programs at least one switching pick must differ
    // between two seeds (each program has several epochs with three
    // detectors to choose from).
    bool differs = false;
    for (std::size_t i = 0; i < programs.size() && !differs; ++i)
        differs = replayDecisions(*pool, 1, programs[i], i) !=
                  replayDecisions(*pool, 2, programs[i], i);
    EXPECT_TRUE(differs);
}

TEST(Serve, SubmitAfterStopSheds)
{
    auto pool = threeDetectorPool();
    DetectionService service(*pool, ServeConfig{});
    service.stop();
    auto report =
        service.submit(sharedExperiment().corpus().programs[0], 0)
            .get();
    ASSERT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(),
              support::StatusCode::Unavailable);
    // Shutdown shedding is reported as such, not as overload
    // (serve.shed_stopped, not serve.shed_queue_full).
    EXPECT_NE(report.status().message().find("stopped"),
              std::string::npos);
}

TEST(Serve, DeadlineShedsStaleRequests)
{
    auto pool = threeDetectorPool();
    ServeConfig sc;
    sc.workers = 1;
    // Any measurable queueing delay exceeds this budget, so every
    // request is shed at the batch head instead of scored.
    sc.deadlineSeconds = 1e-12;
    DetectionService service(*pool, sc);
    auto report =
        service.submit(sharedExperiment().corpus().programs[0], 0)
            .get();
    ASSERT_FALSE(report.isOk());
    EXPECT_EQ(report.status().code(),
              support::StatusCode::Unavailable);
    EXPECT_NE(report.status().message().find("shed after queueing"),
              std::string::npos);
}

TEST(Serve, StopIsIdempotentAndDrainsBacklog)
{
    auto pool = threeDetectorPool();
    ServeConfig sc;
    sc.workers = 2;
    DetectionService service(*pool, sc);
    const auto &programs = sharedExperiment().corpus().programs;
    std::vector<std::future<support::StatusOr<ServeReport>>> futures;
    for (std::size_t i = 0; i < 8; ++i)
        futures.push_back(service.submit(programs[i], i));
    service.stop();
    service.stop();
    // stop() drains admitted requests; none may be abandoned.
    for (auto &future : futures)
        EXPECT_TRUE(future.get().isOk());
}

// --- Batch scoring APIs --------------------------------------------

TEST(ScoreBatch, BitIdenticalToSerialForEveryAlgorithm)
{
    // Train each algorithm on separable blobs, then compare
    // scoreBatch() against one-row score() calls on fresh points. The
    // contract is bit-identical, not approximately equal: a row must
    // score the same alone as inside a batch.
    Rng data_rng(41);
    ml::Dataset data;
    for (std::size_t i = 0; i < 240; ++i) {
        const bool positive = i % 2 == 0;
        const double c = positive ? 1.5 : -1.5;
        std::vector<double> x;
        for (std::size_t f = 0; f < 6; ++f)
            x.push_back(data_rng.gaussian(c, 1.0));
        data.add(std::move(x), positive ? 1 : 0);
    }

    for (const char *algorithm : {"LR", "NN", "DT", "SVM", "RF"}) {
        auto clf = ml::makeClassifier(algorithm);
        Rng train_rng(7);
        clf->train(data, train_rng);

        features::FeatureMatrix x(40, 6);
        Rng point_rng(43);
        for (std::size_t r = 0; r < x.rows(); ++r)
            for (std::size_t f = 0; f < x.cols(); ++f)
                x.row(r)[f] = point_rng.gaussian(0.0, 2.0);

        const std::vector<double> batch = clf->scoreBatch(x);
        ASSERT_EQ(batch.size(), x.rows()) << algorithm;
        for (std::size_t r = 0; r < x.rows(); ++r) {
            const std::vector<double> row(x.row(r), x.row(r) + x.cols());
            EXPECT_EQ(batch[r], clf->score(row))
                << algorithm << " row " << r;
        }
    }
}

TEST(ScoreBatch, HmdScoreWindowsMatchesWindowScore)
{
    const core::Experiment &exp = sharedExperiment();
    auto pool = threeDetectorPool();
    const auto &prog = exp.corpus().programs[0];
    for (const auto &det : pool->detectors()) {
        std::vector<const features::RawWindow *> rows;
        for (const auto &window : prog.windows(det->decisionPeriod()))
            rows.push_back(&window);
        const std::vector<double> batch = det->scoreWindows(rows);
        ASSERT_EQ(batch.size(), rows.size());
        for (std::size_t r = 0; r < rows.size(); ++r)
            EXPECT_EQ(batch[r], det->windowScore(*rows[r]))
                << det->describe() << " window " << r;
    }
}

TEST(DecideBatch, BitIdenticalToSerialDecide)
{
    const core::Experiment &exp = sharedExperiment();
    // Two identically-built pools: decideBatch() must consume the
    // switching stream exactly as back-to-back decide() calls do.
    auto serial = threeDetectorPool(9);
    auto batched = threeDetectorPool(9);

    std::vector<const features::ProgramFeatures *> progs;
    for (const auto &prog : exp.corpus().programs)
        progs.push_back(&prog);

    std::vector<std::vector<int>> expected;
    for (const auto *prog : progs)
        expected.push_back(serial->decide(*prog));
    const std::vector<std::vector<int>> got =
        batched->decideBatch(progs);

    EXPECT_EQ(got, expected);
    EXPECT_EQ(batched->selectionCounts(), serial->selectionCounts());
}

} // namespace

/**
 * @file
 * Tests of the deterministic parallel execution layer: the thread
 * pool, ordered reduction, error short-circuiting, SplitRng stream
 * independence, and the end-to-end N-thread == 1-thread contract on
 * a full (small) experiment.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <thread>
#include <vector>

#include "core/evasion.hh"
#include "core/experiment.hh"
#include "core/rhmd.hh"
#include "support/parallel.hh"
#include "support/rng.hh"

namespace
{

using namespace rhmd;
using support::ThreadPool;

TEST(ThreadPool, SerialFallbackRunsInline)
{
    ThreadPool pool(1);
    EXPECT_TRUE(pool.serial());
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<std::thread::id> ran_on;
    pool.forEach(3, [&](std::size_t i) {
        EXPECT_EQ(i, ran_on.size());
        ran_on.push_back(std::this_thread::get_id());
    });
    ASSERT_EQ(ran_on.size(), 3u);
    for (const std::thread::id &id : ran_on)
        EXPECT_EQ(id, std::this_thread::get_id());
}

TEST(ThreadPool, ResolveRespectsEnvironment)
{
    setenv("RHMD_THREADS", "3", 1);
    EXPECT_EQ(support::resolveThreadCount(0), 3u);
    // Explicit requests win over the environment.
    EXPECT_EQ(support::resolveThreadCount(7), 7u);
    setenv("RHMD_THREADS", "0", 1);
    EXPECT_GE(support::resolveThreadCount(0), 1u);
    unsetenv("RHMD_THREADS");
}

TEST(ThreadPool, ForkedChildExitsWithoutJoiningPhantomWorkers)
{
    // fork() keeps only the calling thread; the global pool's workers
    // do not exist in the child, yet their std::thread handles do. The
    // atfork handler must abandon the pool or the child's exit()-time
    // destructor joins threads that will never finish (this is every
    // gtest death test in the suite once the pool is warm).
    support::setGlobalThreads(4);
    (void)support::parallelMap<int>(
        8, [](std::size_t i) { return static_cast<int>(i); });
    EXPECT_EXIT(std::exit(7), ::testing::ExitedWithCode(7), "");
    support::setGlobalThreads(1);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnceOverRepeatedLoops)
{
    ThreadPool pool(4);
    for (int loop = 0; loop < 50; ++loop) {
        const std::size_t n = 1 + static_cast<std::size_t>(loop) * 7;
        std::vector<std::atomic<int>> hits(n);
        pool.forEach(n, [&](std::size_t i) { hits[i].fetch_add(1); });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(hits[i].load(), 1) << "loop " << loop << " index " << i;
    }
}

TEST(ThreadPool, ConcurrentCallersEachGetIndexOrderedResults)
{
    // Loops from two threads on one pool take turns; each caller
    // must still see its own loop's results in index order.
    ThreadPool pool(4);
    std::atomic<int> mismatches{0};
    const auto caller = [&](std::size_t salt) {
        for (std::size_t loop = 0; loop < 50; ++loop) {
            const std::size_t n = 10 + (loop * 13 + salt) % 90;
            const std::vector<std::size_t> out =
                support::parallelMap<std::size_t>(
                    pool, n, [&](std::size_t i) { return i * salt + loop; });
            if (out.size() != n)
                mismatches.fetch_add(1);
            for (std::size_t i = 0; i < out.size(); ++i) {
                if (out[i] != i * salt + loop)
                    mismatches.fetch_add(1);
            }
        }
    };
    std::thread a(caller, 3);
    std::thread b(caller, 5);
    a.join();
    b.join();
    EXPECT_EQ(mismatches.load(), 0);
}

/**
 * Ordered reduction under a shuffling stress schedule: task i sleeps
 * an index-derived pseudo-random time, so completion order is
 * scrambled relative to index order, yet out[i] must be f(i) and the
 * result must equal the serial run's bit for bit.
 */
TEST(Parallel, OrderedReductionUnderShuffledCompletion)
{
    const std::size_t n = 200;
    auto body = [](std::size_t i) {
        const std::uint64_t jitter =
            SplitRng(1234).seedAt(i) % 400;
        std::this_thread::sleep_for(std::chrono::microseconds(jitter));
        return static_cast<double>(i) * 1.5 + 1.0;
    };

    ThreadPool serial(1);
    ThreadPool wide(8);
    const std::vector<double> expect =
        support::parallelMap<double>(serial, n, body);
    for (int repeat = 0; repeat < 3; ++repeat) {
        const std::vector<double> got =
            support::parallelMap<double>(wide, n, body);
        ASSERT_EQ(got.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(got[i], expect[i]) << "index " << i;
    }
}

TEST(Parallel, NestedLoopsRunInlineWithoutDeadlock)
{
    ThreadPool pool(4);
    const std::vector<double> out = support::parallelMap<double>(
        pool, 16, [&](std::size_t i) {
            // A nested loop from inside a body must not wait on the
            // pool that is running the body.
            const std::vector<double> inner =
                support::parallelMap<double>(
                    pool, 8, [&](std::size_t j) {
                        return static_cast<double>(i * 8 + j);
                    });
            double sum = 0.0;
            for (double v : inner)
                sum += v;
            return sum;
        });
    double expect_total = 0.0;
    for (std::size_t k = 0; k < 16 * 8; ++k)
        expect_total += static_cast<double>(k);
    double total = 0.0;
    for (double v : out)
        total += v;
    EXPECT_EQ(total, expect_total);
}

TEST(SplitRng, StreamsAreOrderIndependent)
{
    const SplitRng split(999);
    // Materializing stream 5 first or last must not matter.
    Rng a = split.at(5);
    Rng ignored = split.at(77);
    (void)ignored.next();
    Rng b = split.at(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitRng, DistinctIndicesDistinctSeeds)
{
    const SplitRng split(2017);
    std::vector<std::uint64_t> seeds;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seeds.push_back(split.seedAt(i));
    std::sort(seeds.begin(), seeds.end());
    EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()),
              seeds.end());
}

/**
 * Chi-square independence check on overlapping streams: draws from
 * streams i and i+1 are binned into a 4x4 contingency table; under
 * independence the statistic follows chi^2 with 9 degrees of
 * freedom (99.9th percentile ~27.9). Adjacent indices are the worst
 * case for a weak mixer.
 */
TEST(SplitRng, AdjacentStreamsPassChiSquare)
{
    const SplitRng split(4242);
    const std::size_t kBins = 4;
    const std::size_t kDraws = 40000;
    for (std::uint64_t stream = 0; stream < 4; ++stream) {
        Rng a = split.at(stream);
        Rng b = split.at(stream + 1);
        std::vector<std::size_t> table(kBins * kBins, 0);
        for (std::size_t d = 0; d < kDraws; ++d) {
            const std::size_t ia =
                static_cast<std::size_t>(a.uniform() * kBins);
            const std::size_t ib =
                static_cast<std::size_t>(b.uniform() * kBins);
            ++table[ia * kBins + ib];
        }
        // Marginals.
        std::vector<double> row(kBins, 0.0);
        std::vector<double> col(kBins, 0.0);
        for (std::size_t r = 0; r < kBins; ++r) {
            for (std::size_t c = 0; c < kBins; ++c) {
                row[r] += static_cast<double>(table[r * kBins + c]);
                col[c] += static_cast<double>(table[r * kBins + c]);
            }
        }
        double chi2 = 0.0;
        for (std::size_t r = 0; r < kBins; ++r) {
            for (std::size_t c = 0; c < kBins; ++c) {
                const double expect =
                    row[r] * col[c] / static_cast<double>(kDraws);
                const double diff =
                    static_cast<double>(table[r * kBins + c]) - expect;
                chi2 += diff * diff / expect;
            }
        }
        EXPECT_LT(chi2, 27.9) << "streams " << stream << " and "
                              << stream + 1;
    }
}

/** Field-wise equality of two raw windows. */
bool
windowsEqual(const features::RawWindow &a, const features::RawWindow &b)
{
    return a.opcodeCounts == b.opcodeCounts &&
           a.memDeltaBins == b.memDeltaBins &&
           a.events == b.events && a.instCount == b.instCount &&
           a.cycles == b.cycles && a.injectedFrac == b.injectedFrac;
}

bool
programsEqual(const features::ProgramFeatures &a,
              const features::ProgramFeatures &b)
{
    if (a.name != b.name || a.malware != b.malware ||
        a.family != b.family)
        return false;
    if (a.byPeriod.size() != b.byPeriod.size())
        return false;
    for (const auto &[period, windows] : a.byPeriod) {
        const auto &other = b.windows(period);
        if (windows.size() != other.size())
            return false;
        for (std::size_t w = 0; w < windows.size(); ++w) {
            if (!windowsEqual(windows[w], other[w]))
                return false;
        }
    }
    return true;
}

/**
 * The end-to-end determinism contract: a full (small) experiment —
 * corpus generation + execution + extraction, pool training, evasive
 * rewriting, detection — is bit-identical at 1 and 4 threads.
 */
TEST(Parallel, SerialVsFourThreadExperimentGolden)
{
    core::ExperimentConfig config;
    config.seed = 77;
    config.benignCount = 24;
    config.malwareCount = 48;
    config.traceInsts = 40000;

    auto run = [&](std::size_t threads) {
        support::setGlobalThreads(threads);
        const core::Experiment exp = core::Experiment::build(config);
        features::FeatureSpec inst;
        inst.kind = features::FeatureKind::Instructions;
        features::FeatureSpec mem;
        mem.kind = features::FeatureKind::Memory;
        auto pool = core::buildRhmd("LR", {inst, mem}, exp.corpus(),
                                    exp.split().victimTrain, 16, 5);
        const auto victim = exp.trainVictim(
            "LR", features::FeatureKind::Instructions, 10000);

        core::EvasionPlan plan;
        plan.strategy = core::EvasionStrategy::Weighted;
        plan.count = 2;
        core::EvasionAudit audit;
        const auto test_mal = exp.malwareOf(exp.split().attackerTest);
        const auto evasive = exp.extractEvasive(
            test_mal, plan, victim.get(), &audit);

        struct Result
        {
            std::vector<features::ProgramFeatures> corpus;
            std::vector<features::ProgramFeatures> evasive;
            std::vector<double> weights;
            std::size_t admitted;
            std::size_t rejected;
            double rate;
        };
        Result result;
        result.corpus = exp.corpus().programs;
        result.evasive = evasive;
        result.weights = victim->effectiveRawWeights();
        result.admitted = audit.admittedSites;
        result.rejected = audit.rejectedSites;
        result.rate = core::Experiment::detectionRate(*pool, evasive);
        return result;
    };

    const auto serial = run(1);
    const auto parallel = run(4);
    support::setGlobalThreads(1);

    ASSERT_EQ(serial.corpus.size(), parallel.corpus.size());
    for (std::size_t p = 0; p < serial.corpus.size(); ++p)
        ASSERT_TRUE(programsEqual(serial.corpus[p], parallel.corpus[p]))
            << "corpus program " << p;
    ASSERT_EQ(serial.evasive.size(), parallel.evasive.size());
    for (std::size_t p = 0; p < serial.evasive.size(); ++p)
        ASSERT_TRUE(
            programsEqual(serial.evasive[p], parallel.evasive[p]))
            << "evasive program " << p;
    ASSERT_EQ(serial.weights.size(), parallel.weights.size());
    for (std::size_t w = 0; w < serial.weights.size(); ++w)
        ASSERT_EQ(serial.weights[w], parallel.weights[w]);
    EXPECT_EQ(serial.admitted, parallel.admitted);
    EXPECT_EQ(serial.rejected, parallel.rejected);
    EXPECT_EQ(serial.rate, parallel.rate);
}

} // namespace

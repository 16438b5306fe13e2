/**
 * @file
 * Tests of the resilient (randomized) detector pool.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/retrainer.hh"
#include "core/rhmd.hh"
#include "support/metrics.hh"
#include "support/stats.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::core;

const Experiment &
sharedExperiment()
{
    static const Experiment exp = [] {
        ExperimentConfig config;
        config.benignCount = 60;
        config.malwareCount = 120;
        config.periods = {5000, 10000};
        config.traceInsts = 100000;
        config.seed = 91;
        return Experiment::build(config);
    }();
    return exp;
}

std::vector<features::FeatureSpec>
twoFeatureSpecs()
{
    features::FeatureSpec inst;
    inst.kind = features::FeatureKind::Instructions;
    inst.period = 10000;
    features::FeatureSpec mem;
    mem.kind = features::FeatureKind::Memory;
    mem.period = 10000;
    return {inst, mem};
}

std::unique_ptr<Rhmd>
twoDetectorPool(std::uint64_t seed = 3)
{
    const Experiment &exp = sharedExperiment();
    return buildRhmd("LR", twoFeatureSpecs(), exp.corpus(),
                     exp.split().victimTrain, 16, seed);
}

TEST(Rhmd, PoolBasics)
{
    const auto pool = twoDetectorPool();
    EXPECT_EQ(pool->poolSize(), 2u);
    EXPECT_EQ(pool->decisionPeriod(), 10000u);
    EXPECT_NEAR(pool->policy()[0], 0.5, 1e-12);
    EXPECT_NEAR(pool->policy()[1], 0.5, 1e-12);
}

TEST(Rhmd, MixedPeriodEpochIsMaxPeriod)
{
    const Experiment &exp = sharedExperiment();
    features::FeatureSpec inst5;
    inst5.kind = features::FeatureKind::Instructions;
    inst5.period = 5000;
    features::FeatureSpec mem10;
    mem10.kind = features::FeatureKind::Memory;
    mem10.period = 10000;
    const auto pool = buildRhmd("LR", {inst5, mem10}, exp.corpus(),
                                exp.split().victimTrain, 16, 4);
    EXPECT_EQ(pool->decisionPeriod(), 10000u);
    // Decisions per program = number of 10K epochs.
    const auto &prog = exp.corpus().programs[0];
    EXPECT_EQ(pool->decide(prog).size(), prog.windows(10000).size());
}

TEST(Rhmd, SelectionIsUniformChiSquared)
{
    const Experiment &exp = sharedExperiment();
    auto pool = twoDetectorPool(7);
    for (std::size_t i = 0; i < exp.corpus().programs.size(); ++i)
        pool->decide(exp.corpus().programs[i]);
    const auto &counts = pool->selectionCounts();
    const std::size_t total = counts[0] + counts[1];
    ASSERT_GT(total, 200u);
    // Chi-squared with 1 dof: 10.8 is the 0.1% critical value.
    EXPECT_LT(chiSquared(counts, pool->policy()), 10.8);
}

TEST(Rhmd, NonUniformPolicyRespected)
{
    const Experiment &exp = sharedExperiment();
    auto detectors = [&] {
        std::vector<std::unique_ptr<Hmd>> pool;
        for (const auto &spec : twoFeatureSpecs()) {
            HmdConfig config;
            config.algorithm = "LR";
            config.specs = {spec};
            auto det = std::make_unique<Hmd>(config);
            det->trainOnPrograms(exp.corpus(), exp.split().victimTrain);
            pool.push_back(std::move(det));
        }
        return pool;
    }();
    Rhmd pool(std::move(detectors), {0.9, 0.1}, 11);
    for (const auto &prog : exp.corpus().programs)
        pool.decide(prog);
    const auto &counts = pool.selectionCounts();
    const double frac = static_cast<double>(counts[0]) /
                        static_cast<double>(counts[0] + counts[1]);
    EXPECT_NEAR(frac, 0.9, 0.05);
}

TEST(Rhmd, DecisionsComeFromPoolMembers)
{
    // With a single-detector "pool", decisions must exactly match
    // that detector's own decisions.
    const Experiment &exp = sharedExperiment();
    features::FeatureSpec inst;
    inst.kind = features::FeatureKind::Instructions;
    inst.period = 10000;
    auto pool = buildRhmd("LR", {inst}, exp.corpus(),
                          exp.split().victimTrain, 16, 5);
    ASSERT_EQ(pool->poolSize(), 1u);
    Hmd &only = *pool->detectors()[0];
    for (std::size_t i = 0; i < 5; ++i) {
        const auto &prog = exp.corpus().programs[i];
        EXPECT_EQ(pool->decide(prog), only.decide(prog));
    }
}

TEST(Rhmd, PoolDetectsMalware)
{
    const Experiment &exp = sharedExperiment();
    auto pool = twoDetectorPool(17);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const auto test_ben = exp.benignOf(exp.split().attackerTest);
    const double sens = exp.detectionRateOn(*pool, test_mal);
    const double fpr = exp.detectionRateOn(*pool, test_ben);
    EXPECT_GT(sens, fpr + 0.2);
}

TEST(Rhmd, PolicyToleratesFloatRoundoff)
{
    // A user-computed policy that is off by less than 1e-6 (e.g.
    // accumulated 1/N round-off) is accepted and renormalized
    // instead of aborting.
    const Experiment &exp = sharedExperiment();
    std::vector<std::unique_ptr<Hmd>> dets;
    for (const auto &spec : twoFeatureSpecs()) {
        HmdConfig config;
        config.algorithm = "LR";
        config.specs = {spec};
        auto det = std::make_unique<Hmd>(config);
        det->trainOnPrograms(exp.corpus(), exp.split().victimTrain);
        dets.push_back(std::move(det));
    }
    Rhmd pool(std::move(dets), {0.5 + 5e-7, 0.5}, 23);
    const double total = pool.policy()[0] + pool.policy()[1];
    EXPECT_NEAR(total, 1.0, 1e-12);
    EXPECT_GT(pool.policy()[0], pool.policy()[1]);
}

TEST(Rhmd, ValidatesConstruction)
{
    EXPECT_EXIT(Rhmd({}, {}, 1), ::testing::ExitedWithCode(1),
                "at least one detector");

    const Experiment &exp = sharedExperiment();
    auto make_trained = [&] {
        HmdConfig config;
        config.algorithm = "LR";
        config.specs = twoFeatureSpecs();
        config.specs.resize(1);
        auto det = std::make_unique<Hmd>(config);
        det->trainOnPrograms(exp.corpus(), exp.split().victimTrain);
        return det;
    };

    {
        std::vector<std::unique_ptr<Hmd>> dets;
        dets.push_back(make_trained());
        EXPECT_EXIT(Rhmd(std::move(dets), {0.5, 0.5}, 1),
                    ::testing::ExitedWithCode(1), "policy size");
    }
    {
        std::vector<std::unique_ptr<Hmd>> dets;
        dets.push_back(make_trained());
        EXPECT_EXIT(Rhmd(std::move(dets), {0.7}, 1),
                    ::testing::ExitedWithCode(1), "sum to 1");
    }
    {
        // Untrained detector is rejected.
        HmdConfig config;
        config.algorithm = "LR";
        config.specs = twoFeatureSpecs();
        config.specs.resize(1);
        std::vector<std::unique_ptr<Hmd>> dets;
        dets.push_back(std::make_unique<Hmd>(config));
        EXPECT_EXIT(Rhmd(std::move(dets), {}, 1),
                    ::testing::ExitedWithCode(1), "trained");
    }
}

/** A corpus with periods {4000, 10000}: 10000 % 4000 != 0. */
const Experiment &
nonDividingExperiment()
{
    static const Experiment exp = [] {
        ExperimentConfig config;
        config.benignCount = 6;
        config.malwareCount = 6;
        config.periods = {4000, 10000};
        config.traceInsts = 40000;
        config.seed = 17;
        return Experiment::build(config);
    }();
    return exp;
}

std::vector<features::FeatureSpec>
nonDividingSpecs()
{
    features::FeatureSpec a;
    a.kind = features::FeatureKind::Instructions;
    a.period = 4000;
    features::FeatureSpec b;
    b.kind = features::FeatureKind::Memory;
    b.period = 10000;
    return {a, b};
}

TEST(Rhmd, RejectsNonDividingPeriods)
{
    // The check runs before training, so the forked child exits
    // without starting a worker thread.
    const Experiment &small = nonDividingExperiment();
    EXPECT_EXIT(buildRhmd("LR", nonDividingSpecs(), small.corpus(),
                          small.split().victimTrain, 16, 3),
                ::testing::ExitedWithCode(1), "does not divide");
}

TEST(Rhmd, RetrainPoolRejectsNonDividingPeriodsBeforeTraining)
{
    const Experiment &small = nonDividingExperiment();
    PoolRetrainConfig config;
    config.algorithm = "LR";
    config.specs = nonDividingSpecs();
    const std::uint64_t trained_before =
        support::metrics().counterValue("ml.train_samples");
    const auto pool =
        retrainPool(small.corpus(), small.split().victimTrain, {}, config);
    ASSERT_FALSE(pool.isOk());
    EXPECT_EQ(pool.status().code(), support::StatusCode::InvalidArgument);
    EXPECT_NE(pool.status().message().find("does not divide"),
              std::string::npos);
    EXPECT_EQ(support::metrics().counterValue("ml.train_samples"),
              trained_before);
}

/** One (detector, slot, score) that EpochPlan::score() visits. */
struct PlanVisit
{
    std::size_t detector;
    std::size_t prog;
    std::size_t epoch;
    double score;

    bool operator==(const PlanVisit &) const = default;
};

/**
 * Draw programs [first, first + count) of the corpus on @p plan with
 * uniform picks from Rng(@p seed) over @p pool, then list what its
 * score() visits, in visit order.
 */
std::vector<PlanVisit>
drawAndScore(EpochPlan &plan, const Rhmd &pool, std::size_t first,
             std::size_t count, std::uint64_t seed)
{
    const auto &programs = sharedExperiment().corpus().programs;
    Rng rng(seed);
    for (std::size_t p = first; p < first + count; ++p)
        plan.draw(programs[p], [&] { return rng.below(pool.poolSize()); });
    std::vector<PlanVisit> visits;
    plan.score([&](std::size_t d, const std::vector<EpochPlan::Slot> &slots,
                   const std::vector<double> &scores) {
        for (std::size_t i = 0; i < slots.size(); ++i)
            visits.push_back({d, slots[i].prog, slots[i].epoch, scores[i]});
    });
    return visits;
}

TEST(EpochPlan, ResetPlanMatchesAFreshPlanAcrossPools)
{
    // A service worker keeps one plan and rebinds it per batch, also
    // to a swapped-in pool of another size and epoch. Each reset must
    // leave nothing behind: same slots, same scores as a fresh plan.
    const Experiment &exp = sharedExperiment();
    features::FeatureSpec inst5;
    inst5.kind = features::FeatureKind::Instructions;
    inst5.period = 5000;
    features::FeatureSpec arch10;
    arch10.kind = features::FeatureKind::Architectural;
    arch10.period = 10000;
    std::vector<features::FeatureSpec> three = twoFeatureSpecs();
    three.push_back(inst5);
    const auto mixed = buildRhmd("LR", three, exp.corpus(),
                                 exp.split().victimTrain, 16, 6);
    const auto single = buildRhmd("LR", {inst5}, exp.corpus(),
                                  exp.split().victimTrain, 16, 6);
    const auto pair = twoDetectorPool();
    ASSERT_EQ(mixed->decisionPeriod(), 10000u);
    ASSERT_EQ(single->decisionPeriod(), 5000u);

    // Fill the reused plan's lists before its first reset.
    EpochPlan reused(mixed->detectors(), mixed->decisionPeriod());
    drawAndScore(reused, *mixed, 0, 12, 1);

    struct Step
    {
        const Rhmd *pool;
        std::size_t first;
        std::size_t count;
    };
    // Same pool, then smaller, then larger again, with batches of
    // different sizes so a stale slot or row would show.
    for (const Step &step : {Step{mixed.get(), 12, 5},
                             Step{single.get(), 20, 9},
                             Step{pair.get(), 3, 2},
                             Step{mixed.get(), 40, 16}}) {
        const Rhmd &pool = *step.pool;
        reused.reset(pool.detectors(), pool.decisionPeriod());
        EpochPlan fresh(pool.detectors(), pool.decisionPeriod());
        const std::uint64_t seed = 100 + step.first;
        const std::vector<PlanVisit> got =
            drawAndScore(reused, pool, step.first, step.count, seed);
        EXPECT_FALSE(got.empty());
        EXPECT_EQ(got, drawAndScore(fresh, pool, step.first, step.count,
                                    seed))
            << "pool of " << pool.poolSize() << " at epoch "
            << pool.decisionPeriod();
    }
}

} // namespace

/**
 * @file
 * Tests of model-driven evasion.
 */

#include <gtest/gtest.h>

#include "core/evasion.hh"
#include "core/experiment.hh"
#include "core/reverse_engineer.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::core;

const Experiment &
sharedExperiment()
{
    static const Experiment exp = [] {
        ExperimentConfig config;
        config.benignCount = 72;
        config.malwareCount = 144;
        config.periods = {10000};
        config.traceInsts = 100000;
        config.seed = 314;
        return Experiment::build(config);
    }();
    return exp;
}

/** Mean of @p det's window scores over @p prog. */
double
meanScore(const Hmd &det, const features::ProgramFeatures &prog)
{
    double total = 0.0;
    const std::vector<double> scores = det.scoreWindows(
        windowPointers(prog.windows(det.decisionPeriod())));
    for (double score : scores)
        total += score;
    return total / static_cast<double>(scores.size());
}

TEST(Evasion, StrategyNames)
{
    EXPECT_STREQ(evasionStrategyName(EvasionStrategy::Random), "random");
    EXPECT_STREQ(evasionStrategyName(EvasionStrategy::LeastWeight),
                 "least_weight");
    EXPECT_STREQ(evasionStrategyName(EvasionStrategy::Weighted),
                 "weighted");
}

TEST(Evasion, ZeroCountIsIdentity)
{
    const Experiment &exp = sharedExperiment();
    const auto &prog = exp.programs().back();
    EvasionPlan plan;
    plan.count = 0;
    const auto rewritten = evadeRewrite(prog, plan, nullptr);
    EXPECT_EQ(rewritten.textBytes(), prog.textBytes());
}

TEST(Evasion, LeastWeightNeedsModel)
{
    const Experiment &exp = sharedExperiment();
    EvasionPlan plan;
    plan.strategy = EvasionStrategy::LeastWeight;
    EXPECT_EXIT(evadeRewrite(exp.programs().back(), plan, nullptr),
                ::testing::ExitedWithCode(1), "model");
}

TEST(Evasion, LeastWeightLowersVictimScores)
{
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);

    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    EvasionPlan plan;
    plan.strategy = EvasionStrategy::LeastWeight;
    plan.count = 2;
    const auto evasive =
        exp.extractEvasive(test_mal, plan, victim.get());

    double orig_mean = 0.0;
    double evade_mean = 0.0;
    for (std::size_t i = 0; i < test_mal.size(); ++i) {
        orig_mean +=
            meanScore(*victim, exp.corpus().programs[test_mal[i]]);
        evade_mean += meanScore(*victim, evasive[i]);
    }
    orig_mean /= static_cast<double>(test_mal.size());
    evade_mean /= static_cast<double>(test_mal.size());
    EXPECT_LT(evade_mean, orig_mean - 0.1);
}

TEST(Evasion, LeastWeightEvadesDetection)
{
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const double baseline = exp.detectionRateOn(*victim, test_mal);

    EvasionPlan plan;
    plan.strategy = EvasionStrategy::LeastWeight;
    plan.count = 3;
    const auto evasive =
        exp.extractEvasive(test_mal, plan, victim.get());
    const double after = Experiment::detectionRate(*victim, evasive);
    EXPECT_GT(baseline, 0.6);
    EXPECT_LT(after, baseline - 0.4);
}

TEST(Evasion, RandomInjectionFarWeakerThanTargeted)
{
    // The paper's Fig. 6 control: random injection is not an evasion
    // strategy. Our substrate's class margins are tighter than the
    // paper's corpus, so random dilution costs a little detection,
    // but the targeted strategy at the same budget must be in a
    // different league.
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const double baseline = exp.detectionRateOn(*victim, test_mal);

    EvasionPlan random_plan;
    random_plan.strategy = EvasionStrategy::Random;
    random_plan.count = 2;
    const auto randomized =
        exp.extractEvasive(test_mal, random_plan, nullptr);
    const double after_random =
        Experiment::detectionRate(*victim, randomized);

    EvasionPlan targeted_plan;
    targeted_plan.strategy = EvasionStrategy::LeastWeight;
    targeted_plan.count = 2;
    const auto targeted =
        exp.extractEvasive(test_mal, targeted_plan, victim.get());
    const double after_targeted =
        Experiment::detectionRate(*victim, targeted);

    EXPECT_GT(after_random, baseline - 0.35);
    EXPECT_GT(after_random, after_targeted + 0.25);
}

TEST(Evasion, ReversedModelWorksAlmostAsWellAsWhiteBox)
{
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);

    ProxyConfig pc;
    pc.algorithm = "LR";
    features::FeatureSpec spec;
    spec.kind = features::FeatureKind::Instructions;
    spec.period = 10000;
    pc.specs = {spec};
    const auto proxy = buildProxy(*victim, exp.corpus(),
                                  exp.split().attackerTrain, pc);

    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    EvasionPlan plan;
    plan.strategy = EvasionStrategy::LeastWeight;
    plan.count = 3;

    const auto white = exp.extractEvasive(test_mal, plan, victim.get());
    const auto black = exp.extractEvasive(test_mal, plan, proxy.get());
    const double white_rate = Experiment::detectionRate(*victim, white);
    const double black_rate = Experiment::detectionRate(*victim, black);
    EXPECT_NEAR(black_rate, white_rate, 0.3);
    EXPECT_LT(black_rate, 0.5);
}

TEST(Evasion, WeightedStrategyEvades)
{
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const double baseline = exp.detectionRateOn(*victim, test_mal);

    EvasionPlan plan;
    plan.strategy = EvasionStrategy::Weighted;
    plan.count = 5;
    const auto evasive =
        exp.extractEvasive(test_mal, plan, victim.get());
    const double after = Experiment::detectionRate(*victim, evasive);
    EXPECT_LT(after, baseline - 0.3);
}

TEST(Evasion, NnVictimCanBeEvadedViaCollapse)
{
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "NN", features::FeatureKind::Instructions, 10000);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const double baseline = exp.detectionRateOn(*victim, test_mal);

    EvasionPlan plan;
    plan.strategy = EvasionStrategy::LeastWeight;
    plan.count = 5;
    const auto evasive =
        exp.extractEvasive(test_mal, plan, victim.get());
    const double after = Experiment::detectionRate(*victim, evasive);
    EXPECT_LT(after, baseline - 0.25);
}

TEST(Evasion, FunctionLevelWeakerThanBlockLevel)
{
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);

    EvasionPlan block_plan;
    block_plan.count = 1;
    block_plan.level = trace::InjectLevel::Block;
    EvasionPlan fn_plan = block_plan;
    fn_plan.level = trace::InjectLevel::Function;

    const auto block_mod =
        exp.extractEvasive(test_mal, block_plan, victim.get());
    const auto fn_mod =
        exp.extractEvasive(test_mal, fn_plan, victim.get());
    EXPECT_LE(Experiment::detectionRate(*victim, block_mod),
              Experiment::detectionRate(*victim, fn_mod) + 0.05);
}

TEST(Evasion, InjectedFracVisibleInWindows)
{
    const Experiment &exp = sharedExperiment();
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    EvasionPlan plan;
    plan.count = 2;
    const auto evasive = exp.extractEvasive(
        {test_mal.front()}, plan, victim.get());
    for (const auto &w : evasive[0].windows(10000)) {
        EXPECT_GT(w.injectedFrac, 0.02);
        EXPECT_LT(w.injectedFrac, 0.6);
    }
}

} // namespace

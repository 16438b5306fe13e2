/**
 * @file
 * Integration tests of the end-to-end experiment pipeline.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "ml/metrics.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::core;

ExperimentConfig
smallConfig()
{
    ExperimentConfig config;
    config.benignCount = 24;
    config.malwareCount = 48;
    config.periods = {5000, 10000};
    config.traceInsts = 40000;
    config.seed = 777;
    return config;
}

TEST(Experiment, BuildProducesConsistentPieces)
{
    const Experiment exp = Experiment::build(smallConfig());
    EXPECT_EQ(exp.programs().size(), 72u);
    EXPECT_EQ(exp.corpus().programs.size(), 72u);
    // Programs and corpus rows correspond 1:1.
    for (std::size_t i = 0; i < exp.programs().size(); ++i) {
        EXPECT_EQ(exp.programs()[i].name,
                  exp.corpus().programs[i].name);
        EXPECT_EQ(exp.programs()[i].malware,
                  exp.corpus().programs[i].malware);
    }
    EXPECT_EQ(exp.split().victimTrain.size() +
                  exp.split().attackerTrain.size() +
                  exp.split().attackerTest.size(),
              72u);
}

TEST(Experiment, BuildIsDeterministic)
{
    const Experiment a = Experiment::build(smallConfig());
    const Experiment b = Experiment::build(smallConfig());
    EXPECT_EQ(a.split().victimTrain, b.split().victimTrain);
    const auto &wa = a.corpus().programs[0].windows(10000);
    const auto &wb = b.corpus().programs[0].windows(10000);
    ASSERT_EQ(wa.size(), wb.size());
    EXPECT_EQ(wa[0].opcodeCounts, wb[0].opcodeCounts);
}

TEST(Experiment, MalwareBenignPartition)
{
    const Experiment exp = Experiment::build(smallConfig());
    const auto &all = exp.split().victimTrain;
    const auto mal = exp.malwareOf(all);
    const auto ben = exp.benignOf(all);
    EXPECT_EQ(mal.size() + ben.size(), all.size());
    for (std::size_t i : mal)
        EXPECT_TRUE(exp.corpus().programs[i].malware);
    for (std::size_t i : ben)
        EXPECT_FALSE(exp.corpus().programs[i].malware);
}

TEST(Experiment, VictimQualityAcrossFeatures)
{
    // The Fig-2 sanity: every feature family trains a detector that
    // separates the classes; Instructions is the strongest.
    const Experiment exp = Experiment::build(smallConfig());
    double inst_auc = 0.0;
    for (auto kind : {features::FeatureKind::Instructions,
                      features::FeatureKind::Memory,
                      features::FeatureKind::Architectural}) {
        const auto victim = exp.trainVictim("LR", kind, 10000);
        std::vector<const features::RawWindow *> windows;
        std::vector<int> labels;
        collectWindows(exp.corpus(), exp.split().attackerTest, 10000,
                       windows, labels);
        std::vector<double> scores;
        for (const auto *w : windows)
            scores.push_back(victim->windowScore(*w));
        const double roc_auc = ml::rocCurve(scores, labels).auc;
        EXPECT_GT(roc_auc, 0.6) << features::featureKindName(kind);
        if (kind == features::FeatureKind::Instructions)
            inst_auc = roc_auc;
        else
            EXPECT_GE(inst_auc + 0.03, roc_auc);
    }
}

TEST(Experiment, EvasiveExtractionPreservesOrderAndLabels)
{
    const Experiment exp = Experiment::build(smallConfig());
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);
    const auto mal = exp.malwareOf(exp.split().attackerTest);
    EvasionPlan plan;
    plan.count = 1;
    const auto evasive = exp.extractEvasive(mal, plan, victim.get());
    ASSERT_EQ(evasive.size(), mal.size());
    for (std::size_t i = 0; i < mal.size(); ++i) {
        EXPECT_TRUE(evasive[i].malware);
        EXPECT_EQ(evasive[i].name, exp.corpus().programs[mal[i]].name);
    }
}

TEST(Experiment, DetectionRateBounds)
{
    Experiment exp = Experiment::build(smallConfig());
    const auto victim = exp.trainVictim(
        "LR", features::FeatureKind::Instructions, 10000);
    const double rate =
        exp.detectionRateOn(*victim, exp.split().attackerTest);
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);
    EXPECT_EXIT(exp.detectionRateOn(*victim, {}),
                ::testing::ExitedWithCode(1), "empty");
}

} // namespace

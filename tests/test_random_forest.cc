/**
 * @file
 * Tests of the random forest classifier.
 */

#include <gtest/gtest.h>

#include "ml/metrics.hh"
#include "ml/random_forest.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::ml;

Dataset
ringData(std::size_t n, std::uint64_t seed)
{
    // Positive iff inside an annulus: non-linear, needs an ensemble
    // of axis splits.
    Rng rng(seed);
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.uniform(-2.0, 2.0);
        const double y = rng.uniform(-2.0, 2.0);
        const double r = x * x + y * y;
        data.add({x, y}, r > 0.5 && r < 2.0 ? 1 : 0);
    }
    return data;
}

TEST(Rf, LearnsNonLinearRing)
{
    const Dataset data = ringData(1200, 60);
    RandomForest forest;
    Rng rng(1);
    forest.train(data, rng);
    const std::vector<double> scores = forest.scoreBatch(data.x);
    EXPECT_GT(rocCurve(scores, data.y).auc, 0.93);
}

TEST(Rf, BeatsSingleTreeOnNoisyData)
{
    Rng gen(61);
    Dataset train;
    Dataset test;
    for (int i = 0; i < 1600; ++i) {
        const double x = gen.uniform(-2.0, 2.0);
        const double y = gen.uniform(-2.0, 2.0);
        // Noisy diagonal rule.
        const int label =
            (x + y + gen.gaussian(0.0, 0.8)) > 0.0 ? 1 : 0;
        (i % 2 == 0 ? train : test).add({x, y}, label);
    }
    RandomForest forest;
    DecisionTree tree;
    Rng ra(2);
    Rng rb(2);
    forest.train(train, ra);
    tree.train(train, rb);

    const std::vector<double> forest_scores = forest.scoreBatch(test.x);
    const std::vector<double> tree_scores = tree.scoreBatch(test.x);
    EXPECT_GE(rocCurve(forest_scores, test.y).auc + 0.01,
              rocCurve(tree_scores, test.y).auc);
}

TEST(Rf, TreeCountMatchesConfig)
{
    ForestConfig config;
    config.trees = 7;
    RandomForest forest(config);
    const Dataset data = ringData(200, 62);
    Rng rng(3);
    forest.train(data, rng);
    EXPECT_EQ(forest.treeCount(), 7u);
}

TEST(Rf, DeterministicGivenSeed)
{
    const Dataset data = ringData(300, 63);
    RandomForest a;
    RandomForest b;
    Rng ra(4);
    Rng rb(4);
    a.train(data, ra);
    b.train(data, rb);
    for (double x = -1.5; x <= 1.5; x += 0.5) {
        EXPECT_DOUBLE_EQ(a.score({x, -x * 0.5}),
                         b.score({x, -x * 0.5}));
    }
}

TEST(Rf, ScoresAreAveragesInUnitInterval)
{
    const Dataset data = ringData(300, 65);
    RandomForest forest;
    Rng rng(6);
    forest.train(data, rng);
    for (double x = -2.0; x <= 2.0; x += 0.4) {
        const double s = forest.score({x, 0.0});
        EXPECT_GE(s, 0.0);
        EXPECT_LE(s, 1.0);
    }
}

TEST(Rf, RejectsBadConfig)
{
    ForestConfig config;
    config.trees = 0;
    EXPECT_EXIT(RandomForest{config}, ::testing::ExitedWithCode(1),
                "at least one tree");
    config.trees = 5;
    config.sampleFrac = 0.0;
    EXPECT_EXIT(RandomForest{config}, ::testing::ExitedWithCode(1),
                "sampleFrac");
}

} // namespace

/**
 * @file
 * Tests of the CART decision tree.
 */

#include <gtest/gtest.h>

#include "ml/decision_tree.hh"
#include "ml/metrics.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::ml;

Dataset
axisSplitData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        const double x = rng.uniform(-1.0, 1.0);
        const double noise = rng.uniform(-1.0, 1.0);
        data.add({x, noise}, x > 0.25 ? 1 : 0);
    }
    return data;
}

TEST(Dt, LearnsAxisAlignedSplit)
{
    const Dataset data = axisSplitData(400, 30);
    DecisionTree tree;
    Rng rng(1);
    tree.train(data, rng);
    const std::vector<double> scores = tree.scoreBatch(data.x);
    std::size_t correct = 0;
    for (std::size_t i = 0; i < data.size(); ++i)
        correct += (scores[i] >= 0.5 ? 1 : 0) == data.y[i] ? 1 : 0;
    EXPECT_GT(static_cast<double>(correct) / data.size(), 0.97);
}

TEST(Dt, FindsTheRightFeature)
{
    const Dataset data = axisSplitData(400, 31);
    DecisionTree tree;
    Rng rng(2);
    tree.train(data, rng);
    // Feature 1 is pure noise: flipping it must not change scores.
    for (double x : {-0.5, 0.0, 0.5}) {
        EXPECT_NEAR(tree.score({x, -0.9}), tree.score({x, 0.9}), 0.25);
    }
    // Crossing the true boundary must change the decision.
    EXPECT_LT(tree.score({0.0, 0.0}), 0.5);
    EXPECT_GT(tree.score({0.8, 0.0}), 0.5);
}

TEST(Dt, PureLeavesOnCleanData)
{
    Dataset data;
    for (int i = 0; i < 20; ++i)
        data.add({static_cast<double>(i)}, i < 10 ? 0 : 1);
    TreeConfig config;
    config.minSamplesLeaf = 1;
    config.minSamplesSplit = 2;
    DecisionTree tree(config);
    Rng rng(3);
    tree.train(data, rng);
    for (int i = 0; i < 20; ++i) {
        const double s = tree.score({static_cast<double>(i)});
        EXPECT_EQ(s, i < 10 ? 0.0 : 1.0);
    }
}

TEST(Dt, DepthLimitRespected)
{
    Dataset data;
    Rng gen(4);
    for (int i = 0; i < 500; ++i) {
        // Checkerboard labels force deep trees when allowed.
        const double x = gen.uniform(0.0, 8.0);
        data.add({x}, static_cast<int>(x) % 2);
    }
    TreeConfig config;
    config.maxDepth = 2;
    DecisionTree tree(config);
    Rng rng(5);
    tree.train(data, rng);
    EXPECT_LE(tree.depth(), 3u);  // root + 2 levels
}

TEST(Dt, MinLeafRespected)
{
    Dataset data;
    for (int i = 0; i < 10; ++i)
        data.add({static_cast<double>(i)}, i == 0 ? 1 : 0);
    TreeConfig config;
    config.minSamplesLeaf = 4;
    DecisionTree tree(config);
    Rng rng(6);
    tree.train(data, rng);
    // Splitting off the single positive is forbidden; the tree can
    // carve at most a 4-sample leaf, so no leaf is pure-positive.
    for (int i = 0; i < 10; ++i)
        EXPECT_LT(tree.score({static_cast<double>(i)}), 0.5);
}

TEST(Dt, SingleClassGivesConstantScore)
{
    Dataset data;
    for (int i = 0; i < 10; ++i)
        data.add({static_cast<double>(i)}, 1);
    DecisionTree tree;
    Rng rng(7);
    tree.train(data, rng);
    EXPECT_EQ(tree.nodeCount(), 1u);
    EXPECT_EQ(tree.score({5.0}), 1.0);
}

TEST(Dt, NonLinearPatternBeyondLinearModels)
{
    // Interval labeling: positive iff |x| < 0.5 — impossible for a
    // single linear threshold, easy for a depth-2 tree.
    Dataset data;
    Rng gen(9);
    for (int i = 0; i < 600; ++i) {
        const double x = gen.uniform(-1.5, 1.5);
        data.add({x}, std::abs(x) < 0.5 ? 1 : 0);
    }
    DecisionTree tree;
    Rng rng(10);
    tree.train(data, rng);
    const std::vector<double> scores = tree.scoreBatch(data.x);
    EXPECT_GT(rocCurve(scores, data.y).auc, 0.97);
}

} // namespace

/**
 * @file
 * Tests of logistic regression.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/logistic_regression.hh"
#include "ml/metrics.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::ml;

/** Linearly separable blobs around (+2,+2) and (-2,-2). */
Dataset
blobs(std::size_t n, double gap, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        const bool positive = i % 2 == 0;
        const double cx = positive ? gap : -gap;
        data.add({rng.gaussian(cx, 1.0), rng.gaussian(cx, 1.0)},
                 positive ? 1 : 0);
    }
    return data;
}

TEST(Sigmoid, KnownValues)
{
    EXPECT_NEAR(sigmoid(0.0), 0.5, 1e-12);
    EXPECT_NEAR(sigmoid(100.0), 1.0, 1e-12);
    EXPECT_NEAR(sigmoid(-100.0), 0.0, 1e-12);
    EXPECT_NEAR(sigmoid(1.0), 1.0 / (1.0 + std::exp(-1.0)), 1e-12);
    // Symmetry.
    EXPECT_NEAR(sigmoid(2.0) + sigmoid(-2.0), 1.0, 1e-12);
}

TEST(Lr, LearnsSeparableBlobs)
{
    const Dataset data = blobs(400, 2.0, 8);
    LogisticRegression lr;
    Rng rng(1);
    lr.train(data, rng);

    const std::vector<double> scores = lr.scoreBatch(data.x);
    EXPECT_GT(rocCurve(scores, data.y).auc, 0.97);
}

TEST(Lr, WeightsPointTowardsPositiveClass)
{
    const Dataset data = blobs(400, 2.0, 9);
    LogisticRegression lr;
    Rng rng(2);
    lr.train(data, rng);
    // Positive class lives in the (+,+) quadrant.
    EXPECT_GT(lr.weights()[0], 0.0);
    EXPECT_GT(lr.weights()[1], 0.0);
}

TEST(Lr, ScoreIsMonotoneInFeature)
{
    const Dataset data = blobs(200, 2.0, 10);
    LogisticRegression lr;
    Rng rng(3);
    lr.train(data, rng);
    EXPECT_GT(lr.score({3.0, 3.0}), lr.score({0.0, 0.0}));
    EXPECT_GT(lr.score({0.0, 0.0}), lr.score({-3.0, -3.0}));
}

TEST(Lr, DeterministicGivenSeed)
{
    const Dataset data = blobs(100, 1.0, 11);
    LogisticRegression a;
    LogisticRegression b;
    Rng rng_a(5);
    Rng rng_b(5);
    a.train(data, rng_a);
    b.train(data, rng_b);
    ASSERT_EQ(a.weights().size(), b.weights().size());
    for (std::size_t j = 0; j < a.weights().size(); ++j)
        EXPECT_DOUBLE_EQ(a.weights()[j], b.weights()[j]);
    EXPECT_DOUBLE_EQ(a.bias(), b.bias());
}

TEST(Lr, SetParamsControlsScore)
{
    LogisticRegression lr;
    lr.setParams({1.0, -1.0}, 0.0);
    EXPECT_NEAR(lr.score({0.0, 0.0}), 0.5, 1e-12);
    EXPECT_GT(lr.score({1.0, 0.0}), 0.7);
    EXPECT_LT(lr.score({0.0, 1.0}), 0.3);
}

TEST(Lr, L2ShrinksWeights)
{
    const Dataset data = blobs(300, 3.0, 12);
    LrConfig strong;
    strong.l2 = 0.5;
    LrConfig weak;
    weak.l2 = 0.0;
    LogisticRegression lr_strong(strong);
    LogisticRegression lr_weak(weak);
    Rng ra(6);
    Rng rb(6);
    lr_strong.train(data, ra);
    lr_weak.train(data, rb);
    EXPECT_LT(std::abs(lr_strong.weights()[0]),
              std::abs(lr_weak.weights()[0]));
}

TEST(Lr, HarderOverlapStillAboveChance)
{
    const Dataset data = blobs(600, 0.5, 13);
    LogisticRegression lr;
    Rng rng(7);
    lr.train(data, rng);
    const std::vector<double> scores = lr.scoreBatch(data.x);
    const double a = rocCurve(scores, data.y).auc;
    EXPECT_GT(a, 0.6);
    EXPECT_LT(a, 0.85);  // not suspiciously perfect
}

TEST(Lr, RefusesEmptyData)
{
    LogisticRegression lr;
    Rng rng(1);
    EXPECT_EXIT(lr.train(Dataset{}, rng), ::testing::ExitedWithCode(1),
                "empty");
}

} // namespace

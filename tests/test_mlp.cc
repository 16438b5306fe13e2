/**
 * @file
 * Tests of the MLP (the paper's NN detector).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/logistic_regression.hh"  // for sigmoid()
#include "ml/metrics.hh"
#include "ml/mlp.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::ml;

/** The XOR problem: not linearly separable. */
Dataset
xorData(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        const bool a = rng.chance(0.5);
        const bool b = rng.chance(0.5);
        data.add({(a ? 1.0 : -1.0) + rng.gaussian(0.0, 0.2),
                  (b ? 1.0 : -1.0) + rng.gaussian(0.0, 0.2)},
                 a != b ? 1 : 0);
    }
    return data;
}

TEST(Mlp, LearnsXor)
{
    const Dataset data = xorData(600, 20);
    MlpConfig config;
    config.hidden = 8;
    config.l2 = 1e-4;   // XOR needs a crisp fit
    config.epochs = 150;
    Mlp nn(config);
    Rng rng(1);
    nn.train(data, rng);

    const std::vector<double> scores = nn.scoreBatch(data.x);
    EXPECT_GT(auc(scores, data.y), 0.98);
}

TEST(Mlp, XorIsNotLinearlySolvable)
{
    // Sanity check of the test itself: the collapse of the trained
    // XOR network to a linear scorer must NOT solve XOR.
    const Dataset data = xorData(600, 21);
    MlpConfig config;
    config.hidden = 8;
    config.l2 = 1e-4;
    config.epochs = 150;
    Mlp nn(config);
    Rng rng(2);
    nn.train(data, rng);

    const std::vector<double> w = nn.collapsedWeights();
    std::vector<double> linear_scores;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const double *x = data.x.row(i);
        linear_scores.push_back(w[0] * x[0] + w[1] * x[1]);
    }
    const double linear_auc = auc(linear_scores, data.y);
    EXPECT_LT(std::abs(linear_auc - 0.5), 0.2);
}

TEST(Mlp, HiddenDefaultsToInputDim)
{
    Dataset data;
    Rng seed_rng(3);
    for (int i = 0; i < 60; ++i)
        data.add({seed_rng.gaussian(), seed_rng.gaussian(),
                  seed_rng.gaussian()},
                 i % 2);
    Mlp nn;
    Rng rng(4);
    nn.train(data, rng);
    EXPECT_EQ(nn.hiddenWeights().size(), 3u);
    EXPECT_EQ(nn.hiddenWeights()[0].size(), 3u);
    EXPECT_EQ(nn.outputWeights().size(), 3u);
}

TEST(Mlp, CollapsedWeightsMatchFormula)
{
    Mlp nn;
    nn.setParams({{1.0, 2.0}, {3.0, -4.0}},  // w1: 2 hidden x 2 in
                 {0.0, 0.0},                 // b1
                 {0.5, -1.0},                // w2
                 0.0);                       // b2
    const auto w = nn.collapsedWeights();
    // w_j = sum_i w1_ij * w2_i:
    // w_0 = 1.0*0.5 + 3.0*(-1.0) = -2.5
    // w_1 = 2.0*0.5 + (-4.0)*(-1.0) = 5.0
    ASSERT_EQ(w.size(), 2u);
    EXPECT_NEAR(w[0], -2.5, 1e-12);
    EXPECT_NEAR(w[1], 5.0, 1e-12);
}

TEST(Mlp, ScoreMatchesManualForward)
{
    Mlp nn;
    nn.setParams({{1.0, 0.0}, {0.0, 1.0}}, {0.1, -0.1}, {2.0, -2.0},
                 0.3);
    const std::vector<double> x{0.5, -0.5};
    const double h0 = std::tanh(0.5 + 0.1);
    const double h1 = std::tanh(-0.5 - 0.1);
    const double expected = sigmoid(2.0 * h0 - 2.0 * h1 + 0.3);
    EXPECT_NEAR(nn.score(x), expected, 1e-12);
}

TEST(Mlp, DeterministicGivenSeed)
{
    const Dataset data = xorData(200, 22);
    Mlp a;
    Mlp b;
    Rng ra(9);
    Rng rb(9);
    a.train(data, ra);
    b.train(data, rb);
    for (int i = 0; i < 10; ++i) {
        const std::vector<double> x{i * 0.3 - 1.5, 1.5 - i * 0.3};
        EXPECT_DOUBLE_EQ(a.score(x), b.score(x));
    }
}

TEST(Mlp, CloneScoresIdentically)
{
    const Dataset data = xorData(200, 23);
    Mlp nn;
    Rng rng(10);
    nn.train(data, rng);
    const auto copy = nn.clone();
    for (int i = 0; i < 10; ++i) {
        const std::vector<double> x{i * 0.2 - 1.0, 0.5};
        EXPECT_DOUBLE_EQ(nn.score(x), copy->score(x));
    }
}

TEST(Mlp, RejectsDimMismatchAtScore)
{
    Mlp nn;
    nn.setParams({{1.0, 2.0}}, {0.0}, {1.0}, 0.0);
    EXPECT_DEATH(nn.score({1.0}), "dim");
}

TEST(Mlp, SetParamsValidatesShapes)
{
    Mlp nn;
    EXPECT_DEATH(nn.setParams({{1.0}}, {0.0, 0.0}, {1.0}, 0.0),
                 "inconsistent");
}

} // namespace

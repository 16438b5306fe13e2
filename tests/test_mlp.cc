/**
 * @file
 * Tests of the MLP (the paper's NN detector).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "ml/logistic_regression.hh"  // for sigmoid()
#include "ml/metrics.hh"
#include "ml/mlp.hh"
#include "support/stats.hh"

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
    EXPECT_GT(rocCurve(scores, data.y).auc, 0.98);
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
    const double linear_auc = rocCurve(linear_scores, data.y).auc;
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

TEST(Mlp, RejectsDimMismatchAtScore)
{
    Mlp nn;
    nn.setParams({{1.0, 2.0}}, {0.0}, {1.0}, 0.0);
    EXPECT_DEATH(nn.score({1.0}), "dim");
}

/** The parameters of a trained MLP, as Mlp exposes them. */
struct MlpParams
{
    std::vector<std::vector<double>> w1;  ///< [hidden][input]
    std::vector<double> b1;
    std::vector<double> w2;
    double b2 = 0.0;
};

/**
 * The row-by-row trainer Mlp::train used before its blocked layout,
 * kept as the reference that layout must match bit for bit: every
 * hidden unit owns a weight row, its pre-activation is support::dot
 * plus the bias, and its update follows its delta.
 */
MlpParams
referenceTrain(const MlpConfig &config, const Dataset &data, Rng &rng)
{
    const std::size_t dim = data.dim();
    const std::size_t hidden = config.hidden == 0 ? dim : config.hidden;
    MlpParams m;
    const double init_sd =
        config.initScale / std::sqrt(static_cast<double>(dim));
    m.w1.assign(hidden, std::vector<double>(dim));
    m.b1.assign(hidden, 0.0);
    m.w2.assign(hidden, 0.0);
    for (auto &row : m.w1) {
        for (double &w : row)
            w = rng.gaussian(0.0, init_sd);
    }
    const double out_sd =
        config.initScale / std::sqrt(static_cast<double>(hidden));
    for (double &w : m.w2)
        w = rng.gaussian(0.0, out_sd);

    std::vector<std::vector<double>> v1(hidden,
                                        std::vector<double>(dim, 0.0));
    std::vector<double> vb1(hidden, 0.0);
    std::vector<double> v2(hidden, 0.0);
    double vb2 = 0.0;
    std::vector<double> act(hidden);
    for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
        const double step = config.learningRate /
                            (1.0 + 0.03 * static_cast<double>(epoch));
        for (std::size_t i : rng.permutation(data.size())) {
            const double *x = data.x.row(i);
            double z_out = m.b2;
            for (std::size_t h = 0; h < hidden; ++h) {
                act[h] = std::tanh(dot(m.w1[h].data(), x, dim) + m.b1[h]);
                z_out += m.w2[h] * act[h];
            }
            const double delta_out =
                sigmoid(z_out) - static_cast<double>(data.y[i]);
            for (std::size_t h = 0; h < hidden; ++h) {
                const double delta_h =
                    delta_out * m.w2[h] * (1.0 - act[h] * act[h]);
                v2[h] = config.momentum * v2[h] -
                        step * (delta_out * act[h] + config.l2 * m.w2[h]);
                m.w2[h] += v2[h];
                for (std::size_t j = 0; j < dim; ++j) {
                    v1[h][j] = config.momentum * v1[h][j] -
                               step * (delta_h * x[j] +
                                       config.l2 * m.w1[h][j]);
                    m.w1[h][j] += v1[h][j];
                }
                vb1[h] = config.momentum * vb1[h] - step * delta_h;
                m.b1[h] += vb1[h];
            }
            vb2 = config.momentum * vb2 - step * delta_out;
            m.b2 += vb2;
        }
    }
    return m;
}

std::vector<std::uint64_t>
bitsOf(const std::vector<double> &values)
{
    std::vector<std::uint64_t> bits;
    for (double v : values)
        bits.push_back(std::bit_cast<std::uint64_t>(v));
    return bits;
}

TEST(Mlp, BlockedTrainerMatchesRowByRowReference)
{
    // Every production width is a multiple of four, so these odd
    // shapes are what exercise the padded lanes of the trainer's
    // blocks; hidden 0 means "equal to the input dimension".
    for (std::size_t hidden : {0, 1, 2, 3, 4, 5, 7, 9, 17}) {
        for (std::size_t dim : {1, 2, 3, 5, 16, 29}) {
            SCOPED_TRACE(::testing::Message()
                         << "hidden " << hidden << " dim " << dim);
            Rng data_rng(100 * hidden + dim);
            Dataset data;
            std::vector<double> row(dim);
            for (int i = 0; i < 24; ++i) {
                for (double &v : row)
                    v = data_rng.gaussian(i % 2 == 0 ? 0.5 : -0.5, 1.0);
                data.add(row, i % 2);
            }
            MlpConfig config;
            config.hidden = hidden;
            config.epochs = 4;
            config.learningRate = 0.05;

            Rng rng(7 + dim);
            Mlp nn(config);
            nn.train(data, rng);
            Rng ref_rng(7 + dim);
            const MlpParams ref = referenceTrain(config, data, ref_rng);

            ASSERT_EQ(nn.hiddenWeights().size(), ref.w1.size());
            for (std::size_t h = 0; h < ref.w1.size(); ++h)
                EXPECT_EQ(bitsOf(nn.hiddenWeights()[h]), bitsOf(ref.w1[h]))
                    << "w1 row " << h;
            EXPECT_EQ(bitsOf(nn.hiddenBias()), bitsOf(ref.b1));
            EXPECT_EQ(bitsOf(nn.outputWeights()), bitsOf(ref.w2));
            EXPECT_EQ(std::bit_cast<std::uint64_t>(nn.outputBias()),
                      std::bit_cast<std::uint64_t>(ref.b2));

            Mlp ref_nn;
            ref_nn.setParams(ref.w1, ref.b1, ref.w2, ref.b2);
            EXPECT_EQ(bitsOf(nn.scoreBatch(data.x)),
                      bitsOf(ref_nn.scoreBatch(data.x)));
            // Same draws in the same order: the Box-Muller cache and
            // the stream position both match.
            EXPECT_EQ(std::bit_cast<std::uint64_t>(rng.gaussian()),
                      std::bit_cast<std::uint64_t>(ref_rng.gaussian()));
            EXPECT_EQ(rng.next(), ref_rng.next());
        }
    }
}

TEST(Mlp, SetParamsValidatesShapes)
{
    Mlp nn;
    EXPECT_DEATH(nn.setParams({{1.0}}, {0.0, 0.0}, {1.0}, 0.0),
                 "inconsistent");
}

} // namespace

/**
 * @file
 * Tests of the linear SVM (Pegasos).
 */

#include <gtest/gtest.h>

#include "ml/metrics.hh"
#include "ml/svm.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::ml;

Dataset
blobs(std::size_t n, double gap, std::uint64_t seed)
{
    Rng rng(seed);
    Dataset data;
    for (std::size_t i = 0; i < n; ++i) {
        const bool positive = i % 2 == 0;
        const double cx = positive ? gap : -gap;
        data.add({rng.gaussian(cx, 1.0), rng.gaussian(-cx, 1.0)},
                 positive ? 1 : 0);
    }
    return data;
}

TEST(Svm, LearnsSeparableBlobs)
{
    const Dataset data = blobs(400, 2.5, 40);
    LinearSvm svm;
    Rng rng(1);
    svm.train(data, rng);
    const std::vector<double> scores = svm.scoreBatch(data.x);
    EXPECT_GT(rocCurve(scores, data.y).auc, 0.96);
}

TEST(Svm, MarginSignSeparatesClasses)
{
    const Dataset data = blobs(400, 2.5, 41);
    LinearSvm svm;
    Rng rng(2);
    svm.train(data, rng);
    // score() is sigmoid(sharpness * margin): above 0.5 exactly when
    // the margin is positive.
    EXPECT_GT(svm.score({3.0, -3.0}), 0.5);
    EXPECT_LT(svm.score({-3.0, 3.0}), 0.5);
}

TEST(Svm, ScoreIsMonotoneInMargin)
{
    LinearSvm svm;
    svm.setParams({1.0, 0.0}, 0.0);
    double last = 0.0;
    for (double x = -2.0; x <= 2.0; x += 0.5) {
        const double s = svm.score({x, 0.0});
        EXPECT_GT(s, last);
        last = s;
    }
}

TEST(Svm, ScoreIsHalfAtZeroMargin)
{
    LinearSvm svm;
    svm.setParams({1.0}, -1.0);
    EXPECT_NEAR(svm.score({1.0}), 0.5, 1e-12);
}

TEST(Svm, DeterministicGivenSeed)
{
    const Dataset data = blobs(200, 1.0, 42);
    LinearSvm a;
    LinearSvm b;
    Rng ra(3);
    Rng rb(3);
    a.train(data, ra);
    b.train(data, rb);
    for (std::size_t j = 0; j < a.weights().size(); ++j)
        EXPECT_DOUBLE_EQ(a.weights()[j], b.weights()[j]);
}

TEST(Svm, StrongerRegularizationShrinksWeights)
{
    const Dataset data = blobs(300, 3.0, 43);
    SvmConfig strong;
    strong.lambda = 1e-1;
    SvmConfig weak;
    weak.lambda = 1e-5;
    LinearSvm svm_strong(strong);
    LinearSvm svm_weak(weak);
    Rng ra(4);
    Rng rb(4);
    svm_strong.train(data, ra);
    svm_weak.train(data, rb);
    const double norm_strong =
        svm_strong.weights()[0] * svm_strong.weights()[0] +
        svm_strong.weights()[1] * svm_strong.weights()[1];
    const double norm_weak =
        svm_weak.weights()[0] * svm_weak.weights()[0] +
        svm_weak.weights()[1] * svm_weak.weights()[1];
    EXPECT_LT(norm_strong, norm_weak);
}

TEST(Svm, RefusesEmptyData)
{
    LinearSvm svm;
    Rng rng(1);
    EXPECT_EXIT(svm.train(Dataset{}, rng), ::testing::ExitedWithCode(1),
                "empty");
}

} // namespace

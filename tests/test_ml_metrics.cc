/**
 * @file
 * Tests of the classification metrics.
 */

#include <gtest/gtest.h>

#include "ml/metrics.hh"
#include "support/rng.hh"

namespace
{

using namespace rhmd::ml;

TEST(Roc, PerfectClassifierHasAucOne)
{
    const std::vector<double> scores{0.9, 0.8, 0.2, 0.1};
    const std::vector<int> labels{1, 1, 0, 0};
    const RocCurve roc = rocCurve(scores, labels);
    EXPECT_NEAR(roc.auc, 1.0, 1e-12);
    EXPECT_NEAR(roc.bestAccuracy, 1.0, 1e-12);
}

TEST(Roc, InvertedClassifierHasAucZero)
{
    const std::vector<double> scores{0.1, 0.2, 0.8, 0.9};
    const std::vector<int> labels{1, 1, 0, 0};
    EXPECT_NEAR(rocCurve(scores, labels).auc, 0.0, 1e-12);
}

TEST(Roc, RandomScoresNearHalf)
{
    rhmd::Rng rng(6);
    std::vector<double> scores;
    std::vector<int> labels;
    for (int i = 0; i < 4000; ++i) {
        scores.push_back(rng.uniform());
        labels.push_back(rng.chance(0.5) ? 1 : 0);
    }
    EXPECT_NEAR(rocCurve(scores, labels).auc, 0.5, 0.03);
}

TEST(Roc, HandComputedCase)
{
    // Scores: P:0.8, N:0.6, P:0.4, N:0.2. Of the four (P, N) pairs
    // exactly three rank the positive higher, so AUC = 3/4.
    const std::vector<double> scores{0.8, 0.6, 0.4, 0.2};
    const std::vector<int> labels{1, 0, 1, 0};
    EXPECT_NEAR(rocCurve(scores, labels).auc, 0.75, 1e-12);
}

TEST(Roc, TiedScoresHandledAsOnePoint)
{
    const std::vector<double> scores{0.5, 0.5, 0.5, 0.5};
    const std::vector<int> labels{1, 0, 1, 0};
    const RocCurve roc = rocCurve(scores, labels);
    // All tied: the diagonal, AUC 1/2.
    EXPECT_NEAR(roc.auc, 0.5, 1e-12);
}

TEST(Roc, AucEqualsMannWhitney)
{
    rhmd::Rng rng(7);
    std::vector<double> scores;
    std::vector<int> labels;
    for (int i = 0; i < 300; ++i) {
        const bool positive = rng.chance(0.4);
        scores.push_back(positive ? rng.gaussian(1.0, 1.0)
                                  : rng.gaussian(0.0, 1.0));
        labels.push_back(positive ? 1 : 0);
    }
    // Brute-force Mann-Whitney U statistic.
    double wins = 0.0;
    double pairs = 0.0;
    for (std::size_t i = 0; i < scores.size(); ++i) {
        for (std::size_t j = 0; j < scores.size(); ++j) {
            if (labels[i] == 1 && labels[j] == 0) {
                pairs += 1.0;
                if (scores[i] > scores[j])
                    wins += 1.0;
                else if (scores[i] == scores[j])
                    wins += 0.5;
            }
        }
    }
    EXPECT_NEAR(rocCurve(scores, labels).auc, wins / pairs, 1e-9);
}

TEST(Roc, BestThresholdMaximizesAccuracy)
{
    const std::vector<double> scores{0.9, 0.7, 0.6, 0.3, 0.2, 0.1};
    const std::vector<int> labels{1, 1, 0, 1, 0, 0};
    const RocCurve roc = rocCurve(scores, labels);
    const auto accuracy_at = [&](double threshold) {
        double correct = 0.0;
        for (std::size_t i = 0; i < scores.size(); ++i)
            correct += (scores[i] >= threshold) == (labels[i] == 1);
        return correct / static_cast<double>(scores.size());
    };
    EXPECT_NEAR(accuracy_at(roc.bestThreshold), roc.bestAccuracy, 1e-12);
    // Check optimality against a dense threshold sweep.
    for (double t = 0.0; t <= 1.0; t += 0.01)
        EXPECT_LE(accuracy_at(t), roc.bestAccuracy + 1e-12);
}

TEST(Roc, RequiresBothClasses)
{
    EXPECT_EXIT(rocCurve({0.5, 0.6}, {1, 1}),
                ::testing::ExitedWithCode(1), "both classes");
}

} // namespace

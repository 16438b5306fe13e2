/**
 * @file
 * Tests of datasets and standardization.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "ml/dataset.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/svm.hh"
#include "support/metrics.hh"
#include "support/rng.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::ml;

TEST(Dataset, AddAndQuery)
{
    Dataset data;
    EXPECT_TRUE(data.empty());
    data.add({1.0, 2.0}, 1);
    data.add({3.0, 4.0}, 0);
    EXPECT_EQ(data.size(), 2u);
    EXPECT_EQ(data.dim(), 2u);
    EXPECT_EQ(data.y, (std::vector<int>{1, 0}));
    EXPECT_EQ(data.x.row(1)[0], 3.0);
    EXPECT_EQ(data.x.row(1)[1], 4.0);
    data.validate();
}

TEST(Dataset, SgdTrainersCountRowsTimesEpochs)
{
    Dataset data;
    for (int i = 0; i < 10; ++i)
        data.add({i * 0.1, 1.0 - i * 0.2}, i % 2);
    LrConfig lr;
    lr.epochs = 3;
    SvmConfig svm;
    svm.epochs = 5;
    MlpConfig nn;
    nn.epochs = 7;
    const std::uint64_t before =
        support::metrics().counterValue("ml.train_samples");
    Rng rng(1);
    LogisticRegression(lr).train(data, rng);
    LinearSvm(svm).train(data, rng);
    Mlp(nn).train(data, rng);
    EXPECT_EQ(support::metrics().counterValue("ml.train_samples") - before,
              10u * (3 + 5 + 7));
}

TEST(Dataset, AddRejectsDimMismatchAndBadLabels)
{
    Dataset data;
    data.add({1.0, 2.0}, 1);
    EXPECT_DEATH(data.add({1.0}, 0), "dimensionality mismatch");
    EXPECT_DEATH(data.add({1.0, 2.0}, 2), "labels must be 0 or 1");
}

TEST(Dataset, ValidateRejectsLabelCountMismatch)
{
    Dataset data{features::FeatureMatrix(3, 2), {0, 1}};
    EXPECT_DEATH(data.validate(), "x/y size mismatch");
}

TEST(Standardizer, MeanZeroVarianceOne)
{
    Dataset data;
    Rng rng(5);
    for (int i = 0; i < 500; ++i)
        data.add({rng.gaussian(10.0, 3.0), rng.gaussian(-5.0, 0.1)},
                 i % 2);
    const Standardizer std_ = Standardizer::fit(data.x);
    for (std::size_t r = 0; r < data.size(); ++r)
        std_.applyInPlace(data.x.row(r), data.dim());

    for (std::size_t j = 0; j < 2; ++j) {
        double sum = 0.0;
        double sumsq = 0.0;
        for (std::size_t r = 0; r < data.size(); ++r) {
            const double v = data.x.row(r)[j];
            sum += v;
            sumsq += v * v;
        }
        const double m = sum / static_cast<double>(data.size());
        const double var =
            sumsq / static_cast<double>(data.size()) - m * m;
        EXPECT_NEAR(m, 0.0, 1e-9);
        EXPECT_NEAR(var, 1.0, 1e-6);
    }
}

TEST(Standardizer, ConstantFeaturePassesThroughCentred)
{
    Dataset data;
    data.add({7.0, 1.0}, 0);
    data.add({7.0, 2.0}, 1);
    const Standardizer std_ = Standardizer::fit(data.x);
    EXPECT_EQ(std_.scale[0], 1.0);  // zero variance -> scale 1
    double v[] = {7.0, 1.5};
    std_.applyInPlace(v, 2);
    EXPECT_NEAR(v[0], 0.0, 1e-12);
}

TEST(Standardizer, ApplyMatchesManualFormula)
{
    Dataset data;
    data.add({0.0}, 0);
    data.add({10.0}, 1);
    const Standardizer std_ = Standardizer::fit(data.x);
    // mean 5, population sd 5.
    double v = 10.0;
    std_.applyInPlace(&v, 1);
    EXPECT_NEAR(v, 1.0, 1e-12);
}

} // namespace

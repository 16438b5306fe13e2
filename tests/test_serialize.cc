/**
 * @file
 * Tests of the classifier factory and model serialization, including
 * the robustness contract: corrupt, truncated, or wrong-version
 * streams must surface recoverable errors, never crash or abort.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "ml/decision_tree.hh"
#include "ml/logistic_regression.hh"
#include "ml/metrics.hh"
#include "ml/mlp.hh"
#include "ml/serialize.hh"
#include "ml/svm.hh"
#include "runtime/fault_injection.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::ml;

TEST(Factory, MakesEveryAlgorithm)
{
    EXPECT_EQ(makeClassifier("LR")->name(), "LR");
    EXPECT_EQ(makeClassifier("NN")->name(), "NN");
    EXPECT_EQ(makeClassifier("DT")->name(), "DT");
    EXPECT_EQ(makeClassifier("SVM")->name(), "SVM");
    EXPECT_EQ(makeClassifier("RF")->name(), "RF");
}

TEST(Factory, RejectsUnknownName)
{
    EXPECT_EXIT(makeClassifier("GBM"), ::testing::ExitedWithCode(1),
                "unknown classifier");
}

TEST(Serialize, StreamStartsWithMagicAndVersion)
{
    LogisticRegression lr;
    lr.setParams({1.0}, 0.0);
    std::stringstream stream;
    saveModel(lr, stream);
    std::string magic;
    int version = 0;
    stream >> magic >> version;
    EXPECT_EQ(magic, std::string(kModelMagic));
    EXPECT_EQ(version, kModelFormatVersion);
}

TEST(Serialize, LrRoundTrip)
{
    LogisticRegression lr;
    lr.setParams({0.5, -1.25, 3.0}, 0.75);
    std::stringstream stream;
    saveModel(lr, stream);
    const auto loaded = loadModel(stream);
    EXPECT_EQ(loaded->name(), "LR");
    for (const auto &x : {std::vector<double>{1.0, 2.0, 3.0},
                          std::vector<double>{-1.0, 0.5, 0.0}}) {
        EXPECT_DOUBLE_EQ(loaded->score(x), lr.score(x));
    }
}

TEST(Serialize, SvmRoundTrip)
{
    LinearSvm svm;
    svm.setParams({1.5, -0.5}, -0.25);
    std::stringstream stream;
    saveModel(svm, stream);
    const auto loaded = loadModel(stream);
    EXPECT_EQ(loaded->name(), "SVM");
    EXPECT_DOUBLE_EQ(loaded->score({2.0, 1.0}), svm.score({2.0, 1.0}));
}

TEST(Serialize, MlpRoundTrip)
{
    Mlp nn;
    nn.setParams({{0.1, 0.2}, {0.3, -0.4}, {-0.5, 0.6}},
                 {0.01, 0.02, 0.03}, {1.0, -1.0, 0.5}, -0.1);
    std::stringstream stream;
    saveModel(nn, stream);
    const auto loaded = loadModel(stream);
    EXPECT_EQ(loaded->name(), "NN");
    for (double x = -1.0; x <= 1.0; x += 0.4) {
        EXPECT_NEAR(loaded->score({x, -x}), nn.score({x, -x}), 1e-9);
    }
}

TEST(Serialize, EveryParametricModelRoundTripsAfterTraining)
{
    // Round-trip all serializable models on the same trained task
    // and check score equivalence point-by-point.
    Rng gen(50);
    Dataset data;
    for (int i = 0; i < 300; ++i) {
        const bool pos = i % 2 == 0;
        data.add({gen.gaussian(pos ? 1.0 : -1.0, 1.0),
                  gen.gaussian(pos ? -0.5 : 0.5, 1.0)},
                 pos ? 1 : 0);
    }
    for (const char *name : {"LR", "SVM", "NN"}) {
        auto model = makeClassifier(name);
        Rng rng(1);
        model->train(data, rng);
        std::stringstream stream;
        ASSERT_TRUE(trySaveModel(*model, stream).isOk()) << name;
        auto loaded = tryLoadModel(stream);
        ASSERT_TRUE(loaded.isOk()) << name;
        const std::vector<double> want = model->scoreBatch(data.x);
        const std::vector<double> got = (*loaded)->scoreBatch(data.x);
        for (std::size_t i = 0; i < data.size(); ++i)
            ASSERT_NEAR(got[i], want[i], 1e-12) << name;
    }
}

TEST(Serialize, TrainedModelRoundTripPreservesAuc)
{
    Rng gen(50);
    Dataset data;
    for (int i = 0; i < 300; ++i) {
        const bool pos = i % 2 == 0;
        data.add({gen.gaussian(pos ? 1.0 : -1.0, 1.0)}, pos ? 1 : 0);
    }
    LogisticRegression lr;
    Rng rng(1);
    lr.train(data, rng);

    std::stringstream stream;
    saveModel(lr, stream);
    const auto loaded = loadModel(stream);

    const std::vector<double> orig = lr.scoreBatch(data.x);
    const std::vector<double> round = loaded->scoreBatch(data.x);
    EXPECT_DOUBLE_EQ(rocCurve(orig, data.y).auc,
                     rocCurve(round, data.y).auc);
}

TEST(Serialize, DtIsNotSerializable)
{
    DecisionTree tree;
    std::stringstream stream;
    const auto status = trySaveModel(tree, stream);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), support::StatusCode::InvalidArgument);
    EXPECT_NE(status.message().find("does not support"),
              std::string::npos);
    // The fatal wrapper still exits for config-time callers.
    std::stringstream other;
    EXPECT_EXIT(saveModel(tree, other), ::testing::ExitedWithCode(1),
                "does not support");
}

TEST(Serialize, BadMagicIsRecoverable)
{
    std::stringstream stream("GARBAGE 1 2 3");
    const auto model = tryLoadModel(stream);
    ASSERT_FALSE(model.isOk());
    EXPECT_EQ(model.status().code(),
              support::StatusCode::InvalidArgument);
    EXPECT_NE(model.status().message().find("bad magic"),
              std::string::npos);
}

TEST(Serialize, WrongVersionIsRecoverable)
{
    std::stringstream stream("RHMD-MODEL 99\nLR\n1 0.5\n0.0\n");
    const auto model = tryLoadModel(stream);
    ASSERT_FALSE(model.isOk());
    EXPECT_EQ(model.status().code(),
              support::StatusCode::FailedPrecondition);
    EXPECT_NE(model.status().message().find("version"),
              std::string::npos);
}

TEST(Serialize, UnknownKindIsRecoverable)
{
    std::stringstream stream("RHMD-MODEL 2\nGBM\n1 0.5\n");
    const auto model = tryLoadModel(stream);
    ASSERT_FALSE(model.isOk());
    EXPECT_EQ(model.status().code(),
              support::StatusCode::InvalidArgument);
    EXPECT_NE(model.status().message().find("unknown model kind"),
              std::string::npos);
}

TEST(Serialize, TruncatedStreamsAreRecoverable)
{
    // Cut a valid stream at every byte offset: each prefix must
    // produce an error (or, for a lucky prefix, a valid model), and
    // never crash or abort.
    Mlp nn;
    nn.setParams({{0.1, 0.2}, {0.3, -0.4}}, {0.01, 0.02}, {1.0, -1.0},
                 -0.1);
    std::stringstream full;
    saveModel(nn, full);
    const std::string text = full.str();
    std::size_t errors = 0;
    for (std::size_t cut = 0; cut + 1 < text.size(); ++cut) {
        std::stringstream prefix(text.substr(0, cut));
        errors += tryLoadModel(prefix).isOk() ? 0 : 1;
    }
    // Almost every strict prefix must error; the only survivors are
    // cuts inside the digits of the trailing output bias (a full-
    // precision double, up to ~25 bytes), which still leave a
    // syntactically complete stream.
    EXPECT_GE(errors + 30, text.size() - 1);
    EXPECT_GE(errors, (text.size() - 1) / 2);
    std::stringstream empty("");
    EXPECT_FALSE(tryLoadModel(empty).isOk());
}

TEST(Serialize, AbsurdVectorSizeIsRecoverable)
{
    std::stringstream stream("RHMD-MODEL 2\nLR\n99999999999 0.5\n");
    const auto model = tryLoadModel(stream);
    ASSERT_FALSE(model.isOk());
    EXPECT_EQ(model.status().code(), support::StatusCode::DataLoss);
}

TEST(Serialize, NnWithoutHiddenUnitsIsRecoverable)
{
    // Every size field is consistent, so only the hidden count itself
    // can reject this stream before Mlp::setParams would panic on it.
    std::stringstream stream("RHMD-MODEL 2\nNN\n0\n0\n0\n0.5\n");
    const auto model = tryLoadModel(stream);
    ASSERT_FALSE(model.isOk());
    EXPECT_EQ(model.status().code(), support::StatusCode::DataLoss);
    EXPECT_NE(model.status().message().find("no hidden units"),
              std::string::npos);
}

TEST(Serialize, LinearModelWithoutWeightsIsRecoverable)
{
    // A well-formed empty weight vector and a bias: only the weight
    // count rejects these, before a model that would panic at its
    // first score is handed out. Nothing is scored here.
    for (const char *text :
         {"RHMD-MODEL 2\nLR\n0\n0.5\n", "RHMD-MODEL 2\nSVM\n0\n0.5\n"}) {
        std::stringstream stream(text);
        const auto model = tryLoadModel(stream);
        ASSERT_FALSE(model.isOk()) << text;
        EXPECT_EQ(model.status().code(), support::StatusCode::DataLoss);
        EXPECT_NE(model.status().message().find("no weights"),
                  std::string::npos);
    }
}

TEST(Serialize, NonFiniteParametersAreRecoverable)
{
    // "nan" is rejected by the stream parse itself; an overflowing
    // literal is rejected either way. Both must surface DataLoss.
    for (const char *text : {"RHMD-MODEL 2\nLR\n2 nan 0.5\n0.0\n",
                             "RHMD-MODEL 2\nLR\n2 1e999999 0.5\n0.0\n"}) {
        std::stringstream stream(text);
        const auto model = tryLoadModel(stream);
        ASSERT_FALSE(model.isOk()) << text;
        EXPECT_EQ(model.status().code(), support::StatusCode::DataLoss);
    }
}

TEST(Serialize, FatalWrapperStillExitsOnCorruptStream)
{
    std::stringstream truncated("RHMD-MODEL 2\nLR\n3 0.5 0.25");
    EXPECT_EXIT(loadModel(truncated), ::testing::ExitedWithCode(1),
                "short vector");
}

TEST(Serialize, FuzzedStreamsNeverAbort)
{
    // Deterministically corrupt a valid model stream at increasing
    // byte-flip rates; every variant must parse or error cleanly.
    LogisticRegression lr;
    lr.setParams({0.5, -1.25, 3.0}, 0.75);
    std::stringstream stream;
    saveModel(lr, stream);
    const std::string text = stream.str();

    std::size_t errors = 0;
    std::size_t trials = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        runtime::FaultConfig config;
        config.byteFlipRate = 0.02 * static_cast<double>(seed % 8 + 1);
        config.seed = seed;
        runtime::FaultInjector injector(config);
        std::stringstream corrupt(injector.corruptText(text));
        errors += tryLoadModel(corrupt).isOk() ? 0 : 1;
        ++trials;
    }
    // Most corruptions must be caught (magic, sizes, parse errors);
    // a flip inside a digit can legitimately still parse.
    EXPECT_GT(errors, trials / 2);
}

} // namespace

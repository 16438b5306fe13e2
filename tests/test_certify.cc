/**
 * @file
 * Tests of the abstract-interpretation certifier: per-family radius
 * exactness, the randomized soundness harness (no certified-stable
 * window may flip under bounded perturbation), pool aggregation,
 * thread-count determinism, the parameter audit, and the certified
 * promotion floor up through serve::PoolManager.
 */

#include <cmath>
#include <memory>

#include <gtest/gtest.h>

#include "analysis/certify/pool_cert.hh"
#include "core/experiment.hh"
#include "ml/decision_tree.hh"
#include "ml/logistic_regression.hh"
#include "ml/random_forest.hh"
#include "ml/svm.hh"
#include "serve/pool_manager.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::analysis::certify;

const core::Experiment &
sharedExperiment()
{
    static const core::Experiment exp = [] {
        core::ExperimentConfig config;
        config.benignCount = 16;
        config.malwareCount = 32;
        config.periods = {5000, 10000};
        config.traceInsts = 100000;
        config.seed = 321;
        return core::Experiment::build(config);
    }();
    return exp;
}

/** One trained single-detector pool for @p algorithm. */
std::unique_ptr<core::Rhmd>
singlePool(const std::string &algorithm, std::uint64_t seed = 11)
{
    const core::Experiment &exp = sharedExperiment();
    std::vector<std::unique_ptr<core::Hmd>> detectors;
    detectors.push_back(exp.trainVictim(
        algorithm, features::FeatureKind::Instructions, 10000, seed));
    return core::tryMakeRhmd(std::move(detectors), {1.0}, seed)
        .value();
}

/** A heterogeneous five-family pool. */
std::unique_ptr<core::Rhmd>
diversePool(std::uint64_t seed)
{
    const core::Experiment &exp = sharedExperiment();
    constexpr features::FeatureKind kKinds[] = {
        features::FeatureKind::Instructions,
        features::FeatureKind::Memory,
        features::FeatureKind::Architectural,
    };
    constexpr std::uint32_t kPeriods[] = {10000, 5000};
    const char *const kAlgorithms[] = {"LR", "NN", "DT", "SVM", "RF"};
    std::vector<std::unique_ptr<core::Hmd>> detectors;
    for (std::size_t i = 0; i < 5; ++i) {
        detectors.push_back(exp.trainVictim(
            kAlgorithms[i], kKinds[i % 3], kPeriods[i % 2], seed + i));
    }
    return core::tryMakeRhmd(std::move(detectors),
                             std::vector<double>(5, 0.2), seed)
        .value();
}

TEST(SigmoidPreimage, BracketsTheThreshold)
{
    for (double threshold : {0.5, 0.3, 0.9, 0.01, 0.999}) {
        const Interval z = sigmoidPreimage(threshold);
        EXPECT_LT(ml::sigmoid(z.lo), threshold) << threshold;
        EXPECT_GE(ml::sigmoid(z.hi), threshold) << threshold;
        EXPECT_LE(z.hi - z.lo, 1e-9) << threshold;
    }
    // sigmoid(z) = 0.5 exactly at z = 0.
    const Interval half = sigmoidPreimage(0.5);
    EXPECT_NEAR(half.lo, 0.0, 1e-12);
    EXPECT_NEAR(half.hi, 0.0, 1e-12);
}

TEST(SigmoidPreimage, SaturatedThresholdsMeanConstantDecisions)
{
    // Threshold 0: every score passes — the decision is constantly 1.
    const Interval always = sigmoidPreimage(0.0);
    EXPECT_TRUE(std::isinf(always.lo) && always.lo < 0.0);
    // Threshold above 1: no score passes — constantly 0.
    const Interval never = sigmoidPreimage(1.1);
    EXPECT_TRUE(std::isinf(never.lo) && never.lo > 0.0);
}

TEST(Certifier, LogisticRadiusIsExact)
{
    ml::LogisticRegression lr;
    lr.setParams({1.0, -2.0}, 0.5);
    const std::vector<double> x{0.25, 0.25};
    // z = 0.5 + 0.25 - 0.5 = 0.25; threshold 0.5 has preimage z* = 0;
    // the fastest l-inf descent moves z by ||w||_1 = 3 per unit.
    const double r = stabilityRadius(lr, 0.5, x);
    EXPECT_NEAR(r, 0.25 / 3.0, 1e-9);
    EXPECT_LE(r, 0.25 / 3.0);  // the shave keeps the bound sound

    // Just inside: the adversarial corner cannot flip the decision.
    ASSERT_TRUE(lr.score(x) >= 0.5);
    const std::vector<double> inside{x[0] - r, x[1] + r};
    EXPECT_TRUE(lr.score(inside) >= 0.5);
    // Just outside: the same corner direction flips it.
    const double past = r * 1.001;
    const std::vector<double> outside{x[0] - past, x[1] + past};
    EXPECT_FALSE(lr.score(outside) >= 0.5);
}

TEST(Certifier, SvmRadiusAccountsForScoreSharpness)
{
    ml::LinearSvm svm;
    svm.setParams({2.0, 1.0}, -0.5);
    const std::vector<double> x{0.5, 0.5};
    // margin = 1.0 + 0.5 - 0.5 = 1.0. At threshold 0.5 the sigmoid
    // preimage is 0 and sharpness cancels: r = 1 / ||w||_1.
    EXPECT_NEAR(stabilityRadius(svm, 0.5, x), 1.0 / 3.0, 1e-9);
    // At threshold 0.8 the raw-margin preimage is ln(4)/sharpness.
    const double zstar = std::log(4.0) / svm.scoreSharpness();
    EXPECT_NEAR(stabilityRadius(svm, 0.8, x), (1.0 - zstar) / 3.0,
                1e-9);
}

TEST(Certifier, ZeroWeightsCertifyEverything)
{
    ml::LogisticRegression lr;
    lr.setParams({0.0, 0.0}, 2.0);
    // Constant score: no perturbation can ever flip the decision.
    EXPECT_EQ(stabilityRadius(lr, 0.5, {1.0, -1.0}),
              kUnboundedRadius);
}

TEST(Certifier, DecisionTreeRadiusIsThresholdDistance)
{
    // A cleanly separable 1-D problem grows a single split; the
    // certified radius at any point must equal its distance to that
    // split threshold (up to the float-safety shave).
    ml::Dataset data;
    for (int i = 0; i < 20; ++i) {
        data.add({-1.0 - 0.01 * i}, 0);
        data.add({1.0 + 0.01 * i}, 1);
    }
    ml::DecisionTree tree;
    Rng rng(7);
    tree.train(data, rng);
    ASSERT_FALSE(tree.nodes().empty());
    ASSERT_FALSE(tree.nodes().front().leaf);
    const double split = tree.nodes().front().threshold;

    const std::vector<double> x{0.9};
    ASSERT_TRUE(tree.score(x) >= 0.5);
    const double r = stabilityRadius(tree, 0.5, x);
    EXPECT_NEAR(r, 0.9 - split, 1e-9);
    EXPECT_LE(r, 0.9 - split);
}

TEST(Certifier, UnknownFamilyIsFatal)
{
    // The certifier must refuse arithmetic it cannot analyze rather
    // than silently claim a radius.
    class Opaque : public ml::Classifier
    {
        void train(const ml::Dataset &, Rng &) override {}
        std::vector<double>
        scoreBatch(const features::FeatureMatrix &m) const override
        {
            return std::vector<double>(m.rows(), 1.0);
        }
        std::string name() const override { return "OPAQUE"; }
    };
    const Opaque opaque;
    EXPECT_EXIT(stabilityRadius(opaque, 0.5, {0.0}),
                ::testing::ExitedWithCode(1), "OPAQUE");
}

TEST(Certifier, SoundnessUnderRandomPerturbationAllFamilies)
{
    // The acceptance property: for every family, no window whose
    // certified radius is r may flip under any sampled perturbation
    // with l-inf norm <= r. 25 windows x 400 seeded samples = 10k
    // perturbations per family.
    const core::Experiment &exp = sharedExperiment();
    constexpr std::size_t kWindows = 25;
    constexpr std::size_t kSamples = 400;

    for (const char *algorithm : {"LR", "NN", "DT", "SVM", "RF"}) {
        const auto pool = singlePool(algorithm, 29);
        const core::Hmd &det = *pool->detectors()[0];
        std::size_t flips = 0;
        std::size_t probed = 0;
        std::size_t window = 0;
        for (std::size_t idx : exp.split().attackerTest) {
            const features::ProgramFeatures &prog =
                exp.corpus().programs[idx];
            for (const features::RawWindow &raw :
                 prog.windows(det.decisionPeriod())) {
                if (window >= kWindows)
                    break;
                ++window;
                const std::vector<double> x = det.featureVector(raw);
                const double r = stabilityRadius(det.classifier(),
                                                 det.threshold(), x);
                if (r <= 0.0)
                    continue;
                const double probe =
                    r == kUnboundedRadius ? 8.0 : r;
                flips += countFlipsUnderPerturbation(
                    det.classifier(), det.threshold(), x, probe,
                    kSamples, 0xabcdULL + window);
                ++probed;
            }
        }
        EXPECT_EQ(flips, 0u) << algorithm;
        EXPECT_GT(probed, 10u) << algorithm;
    }
}

TEST(PoolCert, EmptyTestSetIsInvalidArgument)
{
    const auto pool = diversePool(5);
    const auto cert =
        certifyPool(*pool, sharedExperiment().corpus(), {});
    ASSERT_FALSE(cert.isOk());
    EXPECT_EQ(cert.status().code(),
              support::StatusCode::InvalidArgument);
}

TEST(PoolCert, AggregatesMatchPerDetectorStatistics)
{
    const core::Experiment &exp = sharedExperiment();
    const auto pool = diversePool(5);
    const auto cert = certifyPool(*pool, exp.corpus(),
                                  exp.split().attackerTest);
    ASSERT_TRUE(cert.isOk());
    EXPECT_TRUE(cert->report.clean());
    ASSERT_EQ(cert->detectors.size(), 5u);
    EXPECT_GT(cert->epochs, 0u);
    EXPECT_GT(cert->certifiedBound, 0.0);
    EXPECT_LE(cert->certifiedBound, cert->radiusCap);
    EXPECT_GE(cert->stableMass, 0.0);
    EXPECT_LE(cert->stableMass, 1.0);

    // Uniform policy: the pool bound is the mean of the detector
    // mean radii, and every detector saw every epoch.
    double mean_of_means = 0.0;
    for (const DetectorCertificate &det : cert->detectors) {
        EXPECT_EQ(det.windows, cert->epochs);
        EXPECT_GE(det.meanRadius, det.minRadius == kUnboundedRadius
                                      ? cert->radiusCap
                                      : 0.0);
        EXPECT_LE(det.stableFraction, 1.0);
        mean_of_means += 0.2 * det.meanRadius;
        EXPECT_LE(cert->minRadius, det.minRadius);
    }
    EXPECT_NEAR(cert->certifiedBound, mean_of_means, 1e-9);
}

TEST(PoolCert, BitIdenticalAcrossThreadCounts)
{
    const core::Experiment &exp = sharedExperiment();
    const auto pool = diversePool(5);

    support::setGlobalThreads(1);
    const auto a =
        certifyPool(*pool, exp.corpus(), exp.split().attackerTest);
    support::setGlobalThreads(4);
    const auto b =
        certifyPool(*pool, exp.corpus(), exp.split().attackerTest);
    support::setGlobalThreads(0);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());

    // Bit-identical, not approximately equal: the determinism
    // contract the CI job diffs rhmd-certify output under.
    EXPECT_EQ(a->certifiedBound, b->certifiedBound);
    EXPECT_EQ(a->stableMass, b->stableMass);
    EXPECT_EQ(a->minRadius, b->minRadius);
    EXPECT_EQ(a->epochs, b->epochs);
    ASSERT_EQ(a->detectors.size(), b->detectors.size());
    for (std::size_t i = 0; i < a->detectors.size(); ++i) {
        EXPECT_EQ(a->detectors[i].minRadius, b->detectors[i].minRadius);
        EXPECT_EQ(a->detectors[i].meanRadius,
                  b->detectors[i].meanRadius);
        EXPECT_EQ(a->detectors[i].medianRadius,
                  b->detectors[i].medianRadius);
        EXPECT_EQ(a->detectors[i].stableFraction,
                  b->detectors[i].stableFraction);
        EXPECT_EQ(a->detectors[i].zeroMarginWindows,
                  b->detectors[i].zeroMarginWindows);
    }
    EXPECT_EQ(a->report.findings().size(), b->report.findings().size());
}

TEST(Audit, FlagsNonFiniteWeights)
{
    ml::LogisticRegression lr;
    lr.setParams({1.0, std::nan("")}, 0.0);
    ml::Standardizer std_ok;
    std_ok.mean = {0.0, 0.0};
    std_ok.scale = {1.0, 1.0};
    analysis::Report report;
    EXPECT_FALSE(auditModel(lr, std_ok, 2, 0, report));
    ASSERT_FALSE(report.clean());
    EXPECT_EQ(report.findings().front().code, "non-finite-weight");
}

TEST(Audit, FlagsStandardizerProblems)
{
    ml::LogisticRegression lr;
    lr.setParams({1.0, 1.0}, 0.0);

    // Dimensionality disagreement with the feature extractor.
    ml::Standardizer narrow;
    narrow.mean = {0.0};
    narrow.scale = {1.0};
    analysis::Report dim_report;
    EXPECT_FALSE(auditModel(lr, narrow, 2, 3, dim_report));
    EXPECT_EQ(dim_report.findings().front().code,
              "standardizer-dim-mismatch");
    EXPECT_EQ(dim_report.findings().front().function, 3u);

    // A zero scale would turn standardization into division by zero.
    ml::Standardizer degenerate;
    degenerate.mean = {0.0, 0.0};
    degenerate.scale = {1.0, 0.0};
    analysis::Report scale_report;
    EXPECT_FALSE(auditModel(lr, degenerate, 2, 0, scale_report));
    bool found = false;
    for (const analysis::Finding &finding : scale_report.findings())
        found |= finding.code == "non-finite-standardizer";
    EXPECT_TRUE(found);
}

TEST(Audit, FlagsUntrainedTree)
{
    const ml::DecisionTree tree;  // never trained: no nodes
    ml::Standardizer std_ok;
    std_ok.mean = {0.0};
    std_ok.scale = {1.0};
    analysis::Report report;
    EXPECT_FALSE(auditModel(tree, std_ok, 1, 0, report));
    EXPECT_EQ(report.findings().front().code, "degenerate-tree");
}

TEST(Audit, FlagsTreeSplitsPastTheFeatureDim)
{
    // Both trained models split on full-width feature 5 (the forest's
    // trees after their split remap); audited against a 5-feature
    // extractor, every such split reads past the end of the row.
    ml::Dataset data;
    Rng data_rng(5);
    for (int i = 0; i < 200; ++i) {
        std::vector<double> x(6);
        for (double &v : x)
            v = data_rng.uniform(-1.0, 1.0);
        data.add(x, x[5] > 0.0 ? 1 : 0);
    }
    ml::DecisionTree tree;
    ml::ForestConfig forest_config;
    forest_config.trees = 5;
    ml::RandomForest forest(forest_config);
    Rng rng(3);
    tree.train(data, rng);
    forest.train(data, rng);

    const auto standardizer = [](std::size_t d) {
        ml::Standardizer s;
        s.mean.assign(d, 0.0);
        s.scale.assign(d, 1.0);
        return s;
    };
    for (const ml::Classifier *clf :
         {static_cast<const ml::Classifier *>(&tree),
          static_cast<const ml::Classifier *>(&forest)}) {
        analysis::Report full;
        EXPECT_TRUE(auditModel(*clf, standardizer(6), 6, 0, full))
            << clf->name();
        analysis::Report narrow;
        EXPECT_FALSE(auditModel(*clf, standardizer(5), 5, 0, narrow))
            << clf->name();
        ASSERT_FALSE(narrow.clean());
        for (const analysis::Finding &finding : narrow.findings()) {
            EXPECT_EQ(finding.code, "standardizer-dim-mismatch");
            EXPECT_EQ(finding.message, "split feature 5 vs feature dim 5");
        }
    }
}

TEST(Audit, CleanModelPasses)
{
    const auto pool = singlePool("LR", 3);
    const core::Hmd &det = *pool->detectors()[0];
    analysis::Report report;
    EXPECT_TRUE(auditModel(det.classifier(), det.standardizer(),
                           det.featureDim(), 0, report));
    EXPECT_TRUE(report.clean());
}

TEST(CertifiedFloor, SelfComparisonPasses)
{
    const core::Experiment &exp = sharedExperiment();
    const auto pool = diversePool(5);
    // Equal bounds sit exactly on the tolerance boundary; the strict
    // comparison must admit them.
    EXPECT_TRUE(checkCertifiedFloor(*pool, *pool, exp.corpus(),
                                    exp.split().attackerTest)
                    .isOk());
}

TEST(CertifiedFloor, RejectsRegressionAndToleranceRestoresIt)
{
    const core::Experiment &exp = sharedExperiment();
    const auto a = diversePool(5);
    const auto b = diversePool(1009);
    const auto cert_a = certifyPool(*a, exp.corpus(),
                                    exp.split().attackerTest);
    const auto cert_b = certifyPool(*b, exp.corpus(),
                                    exp.split().attackerTest);
    ASSERT_TRUE(cert_a.isOk());
    ASSERT_TRUE(cert_b.isOk());
    if (cert_a->certifiedBound == cert_b->certifiedBound)
        GTEST_SKIP() << "seeds produced identical bounds";

    const core::Rhmd &better = cert_a->certifiedBound >
                                       cert_b->certifiedBound
                                   ? *a
                                   : *b;
    const core::Rhmd &worse = cert_a->certifiedBound >
                                      cert_b->certifiedBound
                                  ? *b
                                  : *a;
    const double gap = std::abs(cert_a->certifiedBound -
                                cert_b->certifiedBound);

    const support::Status rejected = checkCertifiedFloor(
        worse, better, exp.corpus(), exp.split().attackerTest);
    ASSERT_FALSE(rejected.isOk());
    EXPECT_EQ(rejected.code(), support::StatusCode::FailedPrecondition);

    // The reverse direction improves the bound and must pass, and a
    // tolerance covering the whole gap re-admits the worse pool.
    EXPECT_TRUE(checkCertifiedFloor(better, worse, exp.corpus(),
                                    exp.split().attackerTest)
                    .isOk());
    EXPECT_TRUE(checkCertifiedFloor(worse, better, exp.corpus(),
                                    exp.split().attackerTest, gap)
                    .isOk());
}

TEST(CertifiedFloor, NegativeToleranceIsInvalidArgument)
{
    const core::Experiment &exp = sharedExperiment();
    const auto pool = diversePool(5);
    const support::Status status = checkCertifiedFloor(
        *pool, *pool, exp.corpus(), exp.split().attackerTest, -0.5);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), support::StatusCode::InvalidArgument);
}

TEST(PromotionGate, CertifyRejectsWorseCandidate)
{
    const core::Experiment &exp = sharedExperiment();
    auto a = diversePool(5);
    auto b = diversePool(1009);
    const auto cert_a = certifyPool(*a, exp.corpus(),
                                    exp.split().attackerTest);
    const auto cert_b = certifyPool(*b, exp.corpus(),
                                    exp.split().attackerTest);
    ASSERT_TRUE(cert_a.isOk() && cert_b.isOk());
    if (cert_a->certifiedBound == cert_b->certifiedBound)
        GTEST_SKIP() << "seeds produced identical bounds";
    const bool a_better =
        cert_a->certifiedBound > cert_b->certifiedBound;
    std::shared_ptr<const core::Rhmd> better(
        a_better ? std::move(a) : std::move(b));
    std::shared_ptr<const core::Rhmd> worse(
        a_better ? std::move(b) : std::move(a));

    serve::PromotionGate gate;
    gate.corpus = &exp.corpus();
    gate.testIdx = exp.split().attackerTest;
    // A huge PAC slack isolates the certified floor: any rejection
    // below must come from the certifier.
    gate.floorTolerance = 10.0;
    gate.certify = true;
    serve::PoolManager manager(better, {}, gate);

    const std::uint64_t rejected_before = support::metrics().counterValue(
        "serve.swap_rejected_certify");
    const auto swap = manager.swapPool(worse);
    ASSERT_FALSE(swap.isOk());
    EXPECT_EQ(swap.status().code(),
              support::StatusCode::FailedPrecondition);
    EXPECT_EQ(manager.version(), 1u);
    EXPECT_EQ(support::metrics().counterValue(
                  "serve.swap_rejected_certify"),
              rejected_before + 1);

    // Promoting an equal-or-better pool still works.
    const auto ok = manager.swapPool(better);
    ASSERT_TRUE(ok.isOk());
    EXPECT_EQ(*ok, 2u);
}

} // namespace

/**
 * @file
 * Tests of the PAC (Theorem 1) bound computation.
 */

#include <gtest/gtest.h>

#include "core/experiment.hh"
#include "core/pac.hh"
#include "core/reverse_engineer.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::core;

const Experiment &
sharedExperiment()
{
    static const Experiment exp = [] {
        ExperimentConfig config;
        config.benignCount = 60;
        config.malwareCount = 120;
        config.periods = {5000, 10000};
        config.traceInsts = 100000;
        config.seed = 555;
        return Experiment::build(config);
    }();
    return exp;
}

std::unique_ptr<Rhmd>
pool(std::uint64_t seed = 9)
{
    const Experiment &exp = sharedExperiment();
    std::vector<features::FeatureSpec> specs;
    for (auto kind : {features::FeatureKind::Instructions,
                      features::FeatureKind::Memory,
                      features::FeatureKind::Architectural}) {
        features::FeatureSpec spec;
        spec.kind = kind;
        spec.period = 10000;
        specs.push_back(spec);
    }
    return buildRhmd("LR", specs, exp.corpus(),
                     exp.split().victimTrain, 16, seed);
}

TEST(Pac, DisagreementMatrixIsSymmetricZeroDiagonal)
{
    const Experiment &exp = sharedExperiment();
    const auto rhmd = pool();
    const PacReport report =
        computePac(*rhmd, exp.corpus(), exp.split().attackerTest);
    const std::size_t n = rhmd->poolSize();
    ASSERT_EQ(report.disagreement.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(report.disagreement[i][i], 0.0);
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_NEAR(report.disagreement[i][j],
                        report.disagreement[j][i], 1e-12);
            EXPECT_GE(report.disagreement[i][j], 0.0);
            EXPECT_LE(report.disagreement[i][j], 1.0);
        }
    }
}

TEST(Pac, TriangleInequalityOnDisagreements)
{
    // Hamming-style disagreement is a pseudometric.
    const Experiment &exp = sharedExperiment();
    const auto rhmd = pool();
    const PacReport report =
        computePac(*rhmd, exp.corpus(), exp.split().attackerTest);
    const auto &d = report.disagreement;
    const std::size_t n = d.size();
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t k = 0; k < n; ++k)
                EXPECT_LE(d[i][j], d[i][k] + d[k][j] + 1e-12);
}

TEST(Pac, BaselinePoolErrorIsPolicyWeightedMean)
{
    const Experiment &exp = sharedExperiment();
    const auto rhmd = pool();
    const PacReport report =
        computePac(*rhmd, exp.corpus(), exp.split().attackerTest);
    double expected = 0.0;
    for (std::size_t i = 0; i < rhmd->poolSize(); ++i)
        expected += rhmd->policy()[i] * report.baseErrors[i];
    EXPECT_NEAR(report.baselinePoolError, expected, 1e-12);
}

TEST(Pac, BoundsAreOrderedAndPositiveForDiversePool)
{
    const Experiment &exp = sharedExperiment();
    const auto rhmd = pool();
    const PacReport report =
        computePac(*rhmd, exp.corpus(), exp.split().attackerTest);
    EXPECT_GT(report.lowerBound, 0.0);
    EXPECT_GT(report.upperBound, 0.0);
    // For reasonably accurate diverse detectors the Theorem-1
    // interval is non-degenerate.
    EXPECT_LE(report.lowerBound, 1.0);
    for (double e : report.baseErrors) {
        EXPECT_GE(e, 0.0);
        EXPECT_LE(e, 0.5);  // better than chance
    }
}

TEST(Pac, SingleDetectorPoolHasZeroLowerBound)
{
    const Experiment &exp = sharedExperiment();
    features::FeatureSpec spec;
    spec.kind = features::FeatureKind::Instructions;
    spec.period = 10000;
    const auto single = buildRhmd("LR", {spec}, exp.corpus(),
                                  exp.split().victimTrain, 16, 10);
    const PacReport report =
        computePac(*single, exp.corpus(), exp.split().attackerTest);
    EXPECT_EQ(report.lowerBound, 0.0);
}

TEST(Pac, MeasuredAttackerErrorRespectsLowerBound)
{
    // The headline Theorem-1 claim: a reverse-engineering attacker's
    // error against the pool is at least the weighted-disagreement
    // lower bound (up to sampling noise).
    const Experiment &exp = sharedExperiment();
    auto rhmd = pool(21);
    const PacReport report =
        computePac(*rhmd, exp.corpus(), exp.split().attackerTest);

    ProxyConfig pc;
    pc.algorithm = "NN";
    features::FeatureSpec spec;
    spec.kind = features::FeatureKind::Instructions;
    spec.period = 10000;
    pc.specs = {spec};
    const auto proxy = buildProxy(*rhmd, exp.corpus(),
                                  exp.split().attackerTrain, pc);
    const double agree = proxyAgreement(*rhmd, *proxy, exp.corpus(),
                                        exp.split().attackerTest);
    const double attacker_error = 1.0 - agree;
    EXPECT_GT(attacker_error, report.lowerBound - 0.08)
        << "attacker error " << attacker_error << " vs bound "
        << report.lowerBound;
}

TEST(Pac, CountsMatchPerWindowDecisionLoop)
{
    // Mixed periods: the 5000-period detector classifies the leading
    // half of each 10000-instruction epoch.
    const Experiment &exp = sharedExperiment();
    std::vector<features::FeatureSpec> specs(3);
    specs[0].kind = features::FeatureKind::Instructions;
    specs[0].period = 10000;
    specs[1].kind = features::FeatureKind::Memory;
    specs[1].period = 5000;
    specs[2].kind = features::FeatureKind::Architectural;
    specs[2].period = 10000;
    const auto rhmd = buildRhmd("LR", specs, exp.corpus(),
                                exp.split().victimTrain, 16, 21);
    const std::vector<std::size_t> &test = exp.split().attackerTest;
    const PacReport report = computePac(*rhmd, exp.corpus(), test);

    const std::size_t n = rhmd->poolSize();
    const std::uint32_t epoch = rhmd->decisionPeriod();
    std::vector<std::size_t> errors(n, 0);
    std::vector<std::vector<std::size_t>> disagree(
        n, std::vector<std::size_t>(n, 0));
    std::size_t epochs = 0;
    for (std::size_t idx : test) {
        const features::ProgramFeatures &prog = exp.corpus().programs[idx];
        for (std::size_t e = 0; e < prog.windows(epoch).size(); ++e) {
            std::vector<int> decisions(n);
            for (std::size_t i = 0; i < n; ++i) {
                const Hmd &det = *rhmd->detectors()[i];
                const std::uint32_t period = det.decisionPeriod();
                decisions[i] = det.windowDecision(
                    prog.windows(period)[e * (epoch / period)]);
            }
            ++epochs;
            for (std::size_t i = 0; i < n; ++i) {
                errors[i] += decisions[i] != (prog.malware ? 1 : 0);
                for (std::size_t j = 0; j < n; ++j)
                    disagree[i][j] += decisions[i] != decisions[j];
            }
        }
    }
    ASSERT_GT(epochs, 0u);
    const auto rate = [epochs](std::size_t count) {
        return static_cast<double>(count) / static_cast<double>(epochs);
    };
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(report.baseErrors[i], rate(errors[i])) << i;
        for (std::size_t j = 0; j < n; ++j) {
            EXPECT_EQ(report.disagreement[i][j], rate(disagree[i][j]))
                << i << "," << j;
        }
    }
}

TEST(Pac, RequiresTestPrograms)
{
    const Experiment &exp = sharedExperiment();
    const auto rhmd = pool();
    EXPECT_EXIT(computePac(*rhmd, exp.corpus(), {}),
                ::testing::ExitedWithCode(1), "test programs");
}

TEST(PacFloor, EmptyGateCorpusIsInvalidArgument)
{
    // Unlike computePac (a caller bug), an empty gate corpus on the
    // promotion path is a data-plane rejection, not a crash.
    const Experiment &exp = sharedExperiment();
    const auto rhmd = pool();
    const support::Status status =
        checkPacFloor(*rhmd, *rhmd, exp.corpus(), {});
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), support::StatusCode::InvalidArgument);
}

TEST(PacFloor, SingleDetectorPoolOnBothSides)
{
    const Experiment &exp = sharedExperiment();
    features::FeatureSpec spec;
    spec.kind = features::FeatureKind::Instructions;
    spec.period = 10000;
    const auto single = buildRhmd("LR", {spec}, exp.corpus(),
                                  exp.split().victimTrain, 16, 10);
    const auto diverse = pool();

    // Single vs single: both lower bounds are 0, equality passes.
    EXPECT_TRUE(checkPacFloor(*single, *single, exp.corpus(),
                              exp.split().attackerTest)
                    .isOk());
    // Replacing a diverse pool with a single detector collapses the
    // provable floor to 0 — rejected.
    const support::Status collapse = checkPacFloor(
        *single, *diverse, exp.corpus(), exp.split().attackerTest);
    ASSERT_FALSE(collapse.isOk());
    EXPECT_EQ(collapse.code(), support::StatusCode::FailedPrecondition);
    // The other direction strictly improves the floor.
    EXPECT_TRUE(checkPacFloor(*diverse, *single, exp.corpus(),
                              exp.split().attackerTest)
                    .isOk());
}

TEST(PacFloor, ToleranceBoundaryEqualityPasses)
{
    // The comparison is strict: a candidate that undercuts the floor
    // by *exactly* the tolerance is admitted.
    const Experiment &exp = sharedExperiment();
    features::FeatureSpec spec;
    spec.kind = features::FeatureKind::Instructions;
    spec.period = 10000;
    const auto single = buildRhmd("LR", {spec}, exp.corpus(),
                                  exp.split().victimTrain, 16, 10);
    const auto diverse = pool();
    const PacReport cur =
        computePac(*diverse, exp.corpus(), exp.split().attackerTest);
    ASSERT_GT(cur.lowerBound, 0.0);

    // Candidate bound is 0 (single detector), so the gap equals the
    // current bound exactly.
    EXPECT_TRUE(checkPacFloor(*single, *diverse, exp.corpus(),
                              exp.split().attackerTest, cur.lowerBound)
                    .isOk());
    // One ulp-scale step below the gap still rejects.
    EXPECT_FALSE(checkPacFloor(*single, *diverse, exp.corpus(),
                               exp.split().attackerTest,
                               cur.lowerBound * (1.0 - 1e-12))
                     .isOk());
}

} // namespace

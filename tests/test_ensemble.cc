/**
 * @file
 * Tests of the deterministic ensemble and the rotating
 * (non-stationary) pool, and the known-configuration evasion attack.
 */

#include <gtest/gtest.h>

#include <set>

#include "core/ensemble.hh"
#include "core/evasion.hh"
#include "core/experiment.hh"
#include "core/rhmd.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::core;

const Experiment &
sharedExperiment()
{
    static const Experiment exp = [] {
        ExperimentConfig config;
        config.benignCount = 48;
        config.malwareCount = 96;
        config.periods = {5000, 10000};
        config.traceInsts = 80000;
        config.seed = 616;
        return Experiment::build(config);
    }();
    return exp;
}

features::FeatureSpec
spec(features::FeatureKind kind, std::uint32_t period)
{
    features::FeatureSpec s;
    s.kind = kind;
    s.period = period;
    return s;
}

std::vector<features::FeatureSpec>
threeSpecs()
{
    return {spec(features::FeatureKind::Instructions, 10000),
            spec(features::FeatureKind::Memory, 10000),
            spec(features::FeatureKind::Architectural, 10000)};
}

std::vector<std::unique_ptr<Hmd>>
trainedDetectors(const std::vector<features::FeatureSpec> &specs,
                 std::uint64_t seed)
{
    const Experiment &exp = sharedExperiment();
    std::vector<std::unique_ptr<Hmd>> out;
    for (const auto &s : specs) {
        HmdConfig config;
        config.algorithm = "LR";
        config.specs = {s};
        config.seed = ++seed;
        auto det = std::make_unique<Hmd>(config);
        det->trainOnPrograms(exp.corpus(), exp.split().victimTrain);
        out.push_back(std::move(det));
    }
    return out;
}

TEST(Ensemble, IsDeterministic)
{
    const Experiment &exp = sharedExperiment();
    EnsembleHmd ensemble(trainedDetectors(threeSpecs(), 10));
    const auto &prog = exp.corpus().programs[0];
    EXPECT_EQ(ensemble.decide(prog), ensemble.decide(prog));
}

TEST(Ensemble, MajorityVoteSemantics)
{
    const Experiment &exp = sharedExperiment();
    EnsembleHmd ensemble(trainedDetectors(threeSpecs(), 11));
    // Rebuild the same detectors and verify the vote by hand.
    const auto detectors = trainedDetectors(threeSpecs(), 11);
    const auto &prog = exp.corpus().programs[3];
    const auto decisions = ensemble.decide(prog);
    const auto &windows = prog.windows(10000);
    ASSERT_EQ(decisions.size(), windows.size());
    for (std::size_t e = 0; e < decisions.size(); ++e) {
        std::size_t votes = 0;
        for (const auto &det : detectors)
            votes += det->windowDecision(windows[e]);
        EXPECT_EQ(decisions[e], 2 * votes >= detectors.size() ? 1 : 0);
    }
}

TEST(Ensemble, DetectsMalware)
{
    const Experiment &exp = sharedExperiment();
    EnsembleHmd ensemble(trainedDetectors(threeSpecs(), 12));
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const auto test_ben = exp.benignOf(exp.split().attackerTest);
    const double sens = exp.detectionRateOn(ensemble, test_mal);
    const double fpr = exp.detectionRateOn(ensemble, test_ben);
    EXPECT_GT(sens, fpr + 0.25);
}

TEST(Ensemble, RequiresTrainedDetectors)
{
    std::vector<std::unique_ptr<Hmd>> empty;
    EXPECT_EXIT(EnsembleHmd{std::move(empty)},
                ::testing::ExitedWithCode(1), "at least one");
}

TEST(Rotating, ActiveSubsetChangesOverTime)
{
    const Experiment &exp = sharedExperiment();
    RotatingRhmd pool(trainedDetectors(threeSpecs(), 13), 1, 2, 7);
    std::set<std::size_t> seen;
    for (std::size_t p = 0; p < 12; ++p) {
        pool.decide(exp.corpus().programs[p]);
        seen.insert(pool.activeSubset().front());
    }
    // With a singleton active subset rotating every 2 epochs, all
    // three candidates should get play.
    EXPECT_GE(seen.size(), 2u);
}

TEST(Rotating, ActiveSubsetSizeRespected)
{
    RotatingRhmd pool(trainedDetectors(threeSpecs(), 14), 2, 4, 8);
    EXPECT_EQ(pool.activeSubset().size(), 2u);
    std::set<std::size_t> unique(pool.activeSubset().begin(),
                                 pool.activeSubset().end());
    EXPECT_EQ(unique.size(), 2u);
}

TEST(Rotating, DetectsMalware)
{
    const Experiment &exp = sharedExperiment();
    RotatingRhmd pool(trainedDetectors(threeSpecs(), 15), 2, 4, 9);
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const auto test_ben = exp.benignOf(exp.split().attackerTest);
    EXPECT_GT(exp.detectionRateOn(pool, test_mal),
              exp.detectionRateOn(pool, test_ben) + 0.2);
}

TEST(Rotating, DecideMatchesSerialReplayOfItsStream)
{
    // Mixed periods, so the leading sub-window index matters: every
    // epoch replays the rotation check, the pick draw and the picked
    // candidate's own window decision, one epoch at a time.
    const Experiment &exp = sharedExperiment();
    const std::size_t active_size = 2;
    const std::uint32_t rotation = 3;
    const std::uint64_t seed = 41;
    RotatingRhmd pool(
        trainedDetectors({spec(features::FeatureKind::Instructions, 10000),
                          spec(features::FeatureKind::Memory, 5000),
                          spec(features::FeatureKind::Architectural, 10000),
                          spec(features::FeatureKind::Instructions, 5000)},
                         30),
        active_size, rotation, seed);
    ASSERT_EQ(pool.decisionPeriod(), 10000u);

    Rng rng(seed);
    std::vector<std::size_t> active;
    std::uint32_t until_rotation = 0;
    const auto rotate = [&] {
        const std::vector<std::size_t> perm =
            rng.permutation(pool.candidates().size());
        active.assign(perm.begin(), perm.begin() + active_size);
        until_rotation = rotation;
    };
    rotate();
    for (std::size_t p = 0; p < 10; ++p) {
        const auto &prog = exp.corpus().programs[p];
        std::vector<int> expected;
        for (std::size_t e = 0; e < prog.windows(10000).size(); ++e) {
            if (until_rotation == 0)
                rotate();
            --until_rotation;
            const Hmd &det =
                *pool.candidates()[active[rng.below(active.size())]];
            const std::uint32_t period = det.decisionPeriod();
            expected.push_back(det.windowDecision(
                prog.windows(period)[e * (10000 / period)]));
        }
        EXPECT_EQ(pool.decide(prog), expected) << "program " << p;
        EXPECT_EQ(pool.activeSubset(), active) << "program " << p;
    }
}

TEST(Rotating, ValidatesConstruction)
{
    EXPECT_EXIT(RotatingRhmd({}, 1, 4, 1), ::testing::ExitedWithCode(1),
                "candidates");
    EXPECT_EXIT(RotatingRhmd(trainedDetectors(threeSpecs(), 16), 0, 4,
                             1),
                ::testing::ExitedWithCode(1), "active subset");
    EXPECT_EXIT(RotatingRhmd(trainedDetectors(threeSpecs(), 17), 4, 4,
                             1),
                ::testing::ExitedWithCode(1), "active subset");
    EXPECT_EXIT(RotatingRhmd(trainedDetectors(threeSpecs(), 18), 2, 0,
                             1),
                ::testing::ExitedWithCode(1), "rotation interval");
}

TEST(EvadeAll, PayloadCombinesAllModels)
{
    const Experiment &exp = sharedExperiment();
    const auto detectors = trainedDetectors(threeSpecs(), 19);
    std::vector<const Hmd *> models;
    for (const auto &det : detectors)
        models.push_back(det.get());

    const auto mal = exp.malwareOf(exp.split().attackerTest);
    const trace::Program &original = exp.programs()[mal.front()];
    const trace::Program rewritten = evadeAllDetectors(
        original, models, trace::InjectLevel::Block, 2);

    // Injected instructions per block = 2 per model.
    ASSERT_EQ(rewritten.functions.size(), original.functions.size());
    for (std::size_t f = 0; f < original.functions.size(); ++f) {
        const auto &before = original.functions[f].blocks;
        const auto &after = rewritten.functions[f].blocks;
        ASSERT_EQ(after.size(), before.size());
        for (std::size_t b = 0; b < before.size(); ++b)
            EXPECT_EQ(after[b].body.size(),
                      before[b].body.size() + models.size() * 2);
    }
}

TEST(EvadeAll, DefeatsTheKnownStaticPool)
{
    const Experiment &exp = sharedExperiment();
    auto detectors = trainedDetectors(threeSpecs(), 20);
    std::vector<const Hmd *> models;
    for (const auto &det : detectors)
        models.push_back(det.get());
    Rhmd pool(std::move(detectors), {}, 21);

    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    std::size_t before = 0;
    std::size_t after = 0;
    for (std::size_t idx : test_mal) {
        before += pool.programDecision(exp.corpus().programs[idx]);
        const trace::Program rewritten = evadeAllDetectors(
            exp.programs()[idx], models, trace::InjectLevel::Block, 3);
        const auto feats = features::extractProgram(
            rewritten, exp.extractConfig());
        after += pool.programDecision(feats);
    }
    EXPECT_GT(before, after + test_mal.size() / 3);
}

TEST(EvadeAll, ModelPayloadMatchesFeatureKind)
{
    const auto detectors = trainedDetectors(threeSpecs(), 22);
    // Instructions model: its least-weight opcode.
    const auto inst_payload = modelPayload(*detectors[0], 3);
    ASSERT_EQ(inst_payload.size(), 3u);
    EXPECT_EQ(inst_payload[0].op,
              detectors[0]->negativeWeightOpcodes().front().first);
    // Memory model: loads with a controlled distance.
    const auto mem_payload = modelPayload(*detectors[1], 2);
    ASSERT_EQ(mem_payload.size(), 2u);
    EXPECT_EQ(mem_payload[0].op, trace::OpClass::Load);
    // Architectural model: an injectable event driver.
    const auto arch_payload = modelPayload(*detectors[2], 1);
    ASSERT_EQ(arch_payload.size(), 1u);
    EXPECT_TRUE(trace::isInjectable(arch_payload[0].op));
}

TEST(Subspace, DifferentSeedsPickDifferentOpcodes)
{
    const Experiment &exp = sharedExperiment();
    std::set<std::vector<std::size_t>> selections;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        HmdConfig config;
        config.algorithm = "LR";
        config.specs = {spec(features::FeatureKind::Instructions,
                             10000)};
        config.opcodeTopK = 8;
        config.opcodePoolK = trace::kNumOpClasses;
        config.seed = seed;
        Hmd det(config);
        det.trainOnPrograms(exp.corpus(), exp.split().victimTrain);
        auto sel = det.specs().front().opcodeSel;
        std::sort(sel.begin(), sel.end());
        EXPECT_EQ(sel.size(), 8u);
        selections.insert(sel);
    }
    EXPECT_GE(selections.size(), 3u);
}

} // namespace

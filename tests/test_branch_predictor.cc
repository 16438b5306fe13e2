/**
 * @file
 * Tests of the branch predictor models.
 */

#include <gtest/gtest.h>

#include "uarch/branch_predictor.hh"

namespace
{

using namespace rhmd::uarch;

TEST(Bimodal, LearnsAlwaysTaken)
{
    BranchPredictor pred(10);
    const std::uint64_t pc = 0x400100;
    for (int i = 0; i < 4; ++i)
        pred.update(pc, true);
    EXPECT_TRUE(pred.predict(pc));
}

TEST(Bimodal, LearnsAlwaysNotTaken)
{
    BranchPredictor pred(10);
    const std::uint64_t pc = 0x400100;
    // Initial state is weakly not-taken.
    EXPECT_FALSE(pred.predict(pc));
    for (int i = 0; i < 4; ++i)
        pred.update(pc, false);
    EXPECT_FALSE(pred.predict(pc));
}

TEST(Bimodal, HysteresisSurvivesOneFlip)
{
    BranchPredictor pred(10);
    const std::uint64_t pc = 0x400200;
    for (int i = 0; i < 4; ++i)
        pred.update(pc, true);  // saturate taken
    pred.update(pc, false);     // one not-taken
    EXPECT_TRUE(pred.predict(pc)) << "2-bit counter should not flip";
    pred.update(pc, false);
    pred.update(pc, false);
    EXPECT_FALSE(pred.predict(pc));
}

TEST(Bimodal, DistinctPcsIndependent)
{
    BranchPredictor pred(12);
    const std::uint64_t a = 0x400100;
    const std::uint64_t b = 0x400104;  // different index after >>2
    for (int i = 0; i < 4; ++i) {
        pred.update(a, true);
        pred.update(b, false);
    }
    EXPECT_TRUE(pred.predict(a));
    EXPECT_FALSE(pred.predict(b));
}

TEST(Bimodal, RejectsBadConfig)
{
    EXPECT_EXIT(BranchPredictor(0), ::testing::ExitedWithCode(1),
                "table size");
    EXPECT_EXIT(BranchPredictor(30), ::testing::ExitedWithCode(1),
                "table size");
}

TEST(Gshare, LearnsAlternatingPatternBimodalCannot)
{
    // A strictly alternating branch: bimodal oscillates around 50%,
    // gshare learns it via history.
    BranchPredictor gshare(12, 8);
    BranchPredictor bimodal(12);
    const std::uint64_t pc = 0x400400;

    int gshare_correct = 0;
    int bimodal_correct = 0;
    bool taken = false;
    for (int i = 0; i < 2000; ++i) {
        taken = !taken;
        if (i > 200) {  // after warmup
            gshare_correct += gshare.predict(pc) == taken ? 1 : 0;
            bimodal_correct += bimodal.predict(pc) == taken ? 1 : 0;
        }
        gshare.update(pc, taken);
        bimodal.update(pc, taken);
    }
    EXPECT_GT(gshare_correct, 1700);
    EXPECT_LT(bimodal_correct, 1200);
}

TEST(Gshare, LearnsPeriodicPattern)
{
    BranchPredictor gshare(12, 10);
    const std::uint64_t pc = 0x400500;
    // Pattern: T T T N repeating (loop of trip count 4).
    int correct = 0;
    for (int i = 0; i < 4000; ++i) {
        const bool taken = (i % 4) != 3;
        if (i > 400)
            correct += gshare.predict(pc) == taken ? 1 : 0;
        gshare.update(pc, taken);
    }
    EXPECT_GT(correct / 3600.0, 0.95);
}

TEST(Gshare, RejectsHistoryLongerThanTable)
{
    EXPECT_EXIT(BranchPredictor(8, 12), ::testing::ExitedWithCode(1),
                "history");
}

/** Random-direction branches are ~50% for any predictor. */
class PredictorRandomSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(PredictorRandomSweep, RandomBranchesNearChance)
{
    BranchPredictor pred(12, 12);
    std::uint64_t state = GetParam() * 0x9e3779b97f4a7c15ULL + 1;
    auto next_bit = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return (state & 1) != 0;
    };
    const std::uint64_t pc = 0x400700;
    int correct = 0;
    constexpr int n = 20000;
    for (int i = 0; i < n; ++i) {
        const bool taken = next_bit();
        correct += pred.predict(pc) == taken ? 1 : 0;
        pred.update(pc, taken);
    }
    EXPECT_NEAR(correct / static_cast<double>(n), 0.5, 0.03);
}

INSTANTIATE_TEST_SUITE_P(Streams, PredictorRandomSweep,
                         ::testing::Values(1, 2, 3, 4));

} // namespace

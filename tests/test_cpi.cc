/**
 * @file
 * Tests of the analytic cycle model.
 */

#include <gtest/gtest.h>

#include "uarch/cpi_model.hh"

namespace
{

using namespace rhmd::uarch;
using rhmd::trace::DynInst;
using rhmd::trace::OpClass;

DynInst
simpleInst(OpClass op)
{
    DynInst inst;
    inst.op = op;
    return inst;
}

TEST(CpiModel, EmptyIsZero)
{
    CpiModel model;
    EXPECT_EQ(model.cycles(), 0.0);
    EXPECT_EQ(model.instructions(), 0u);
    EXPECT_EQ(model.cpi(), 0.0);
}

TEST(CpiModel, SimpleOpsBoundByIssueWidth)
{
    CpiConfig config;
    config.issueWidth = 2.0;
    CpiModel model(config);
    for (int i = 0; i < 100; ++i)
        model.account(simpleInst(OpClass::IntAdd), {});
    EXPECT_NEAR(model.cpi(), 0.5, 1e-12);
}

TEST(CpiModel, LongLatencyOpsCostMore)
{
    CpiModel fast;
    CpiModel slow;
    for (int i = 0; i < 10; ++i) {
        fast.account(simpleInst(OpClass::IntAdd), {});
        slow.account(simpleInst(OpClass::IntDiv), {});
    }
    EXPECT_GT(slow.cycles(), fast.cycles() * 5);
}

TEST(CpiModel, StallPenaltiesAdd)
{
    CpiConfig config;
    config.issueWidth = 1.0;
    config.dcacheMissPenalty = 20.0;
    config.icacheMissPenalty = 12.0;
    config.mispredictPenalty = 14.0;
    config.unalignedPenalty = 2.0;
    CpiModel model(config);

    StepOutcome outcome;
    outcome.dcacheMisses = 1;
    outcome.icacheMisses = 1;
    outcome.mispredicted = true;
    outcome.unaligned = true;
    model.account(simpleInst(OpClass::IntAdd), outcome);
    EXPECT_NEAR(model.cycles(), 1.0 + 20.0 + 12.0 + 14.0 + 2.0, 1e-12);
}

TEST(CpiModel, MultipleMissesScaleLinearly)
{
    CpiConfig config;
    config.issueWidth = 1.0;
    CpiModel model(config);
    StepOutcome outcome;
    outcome.dcacheMisses = 3;
    model.account(simpleInst(OpClass::IntAdd), outcome);
    EXPECT_NEAR(model.cycles(), 1.0 + 3 * config.dcacheMissPenalty,
                1e-12);
}

TEST(CpiModel, CpiIsCyclesOverInstructions)
{
    CpiModel model;
    for (int i = 0; i < 7; ++i)
        model.account(simpleInst(OpClass::IntAdd), {});
    EXPECT_NEAR(model.cpi(), model.cycles() / 7.0, 1e-12);
}

} // namespace

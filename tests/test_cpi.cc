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
    CpiModel model;
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
    CpiModel model;
    StepOutcome outcome;
    outcome.dcacheMisses = 1;
    outcome.icacheMisses = 1;
    outcome.mispredicted = true;
    outcome.unaligned = true;
    model.account(simpleInst(OpClass::IntAdd), outcome);
    // Half an issue slot at width 2, then the four penalties.
    EXPECT_NEAR(model.cycles(), 0.5 + 20.0 + 12.0 + 14.0 + 2.0, 1e-12);
}

TEST(CpiModel, MultipleMissesScaleLinearly)
{
    CpiModel model;
    StepOutcome outcome;
    outcome.dcacheMisses = 3;
    model.account(simpleInst(OpClass::IntAdd), outcome);
    EXPECT_NEAR(model.cycles(), 0.5 + 3 * kDcacheMissPenalty, 1e-12);
}

TEST(CpiModel, CpiIsCyclesOverInstructions)
{
    CpiModel model;
    for (int i = 0; i < 7; ++i)
        model.account(simpleInst(OpClass::IntAdd), {});
    EXPECT_NEAR(model.cpi(), model.cycles() / 7.0, 1e-12);
}

} // namespace

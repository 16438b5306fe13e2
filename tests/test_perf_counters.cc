/**
 * @file
 * Tests of the performance-monitoring unit model.
 */

#include <gtest/gtest.h>

#include <set>
#include <string_view>

#include "uarch/perf_counters.hh"

namespace
{

using namespace rhmd::uarch;
using rhmd::trace::DynInst;
using rhmd::trace::OpClass;

DynInst
makeInst(OpClass op, std::uint64_t pc = 0x400000)
{
    DynInst inst;
    inst.op = op;
    inst.pc = pc;
    inst.size = 4;
    return inst;
}

DynInst
makeLoad(std::uint64_t addr, std::uint8_t size = 8)
{
    DynInst inst = makeInst(OpClass::Load);
    inst.isLoad = true;
    inst.addr = addr;
    inst.accessSize = size;
    return inst;
}

std::uint64_t
count(const PerfMonitor &pmu, Event event)
{
    return pmu.counts()[static_cast<std::size_t>(event)];
}

TEST(PerfMonitor, CountsLoadsAndStores)
{
    PerfMonitor pmu;
    pmu.step(makeLoad(0x1000));
    DynInst store = makeInst(OpClass::Store);
    store.isStore = true;
    store.addr = 0x2000;
    store.accessSize = 8;
    pmu.step(store);
    pmu.step(makeInst(OpClass::IntAdd));
    EXPECT_EQ(count(pmu, Event::Loads), 1u);
    EXPECT_EQ(count(pmu, Event::Stores), 1u);
}

TEST(PerfMonitor, CountsUnalignedOnlyWhenMisaligned)
{
    PerfMonitor pmu;
    pmu.step(makeLoad(0x1000, 8));  // aligned
    EXPECT_EQ(count(pmu, Event::Unaligned), 0u);
    pmu.step(makeLoad(0x1003, 8));  // misaligned
    EXPECT_EQ(count(pmu, Event::Unaligned), 1u);
    pmu.step(makeLoad(0x1001, 1));  // byte access: always aligned
    EXPECT_EQ(count(pmu, Event::Unaligned), 1u);
}

TEST(PerfMonitor, CountsCondBranchesAndTaken)
{
    PerfMonitor pmu;
    DynInst branch = makeInst(OpClass::BranchCond);
    branch.isBranch = true;
    branch.isCondBranch = true;
    branch.taken = true;
    pmu.step(branch);
    branch.taken = false;
    pmu.step(branch);
    DynInst jump = makeInst(OpClass::BranchUncond);
    jump.isBranch = true;
    jump.taken = true;
    pmu.step(jump);
    EXPECT_EQ(count(pmu, Event::CondBranches), 2u);
    EXPECT_EQ(count(pmu, Event::TakenBranches), 2u);  // 1 cond + jump
}

TEST(PerfMonitor, MispredictsTrackPredictorLearning)
{
    PerfMonitor pmu;
    DynInst branch = makeInst(OpClass::BranchCond, 0x400800);
    branch.isBranch = true;
    branch.isCondBranch = true;
    branch.taken = true;
    for (int i = 0; i < 100; ++i)
        pmu.step(branch);
    // After warmup the predictor must have learned always-taken.
    const std::uint64_t early = count(pmu, Event::Mispredicts);
    for (int i = 0; i < 100; ++i)
        pmu.step(branch);
    EXPECT_EQ(count(pmu, Event::Mispredicts), early);
    // Gshare warms up one history pattern at a time, so allow up to
    // ~history-length initial mispredictions.
    EXPECT_LT(early, 20u);
}

TEST(PerfMonitor, CountsOpcodeCategories)
{
    PerfMonitor pmu;
    DynInst call = makeInst(OpClass::Call);
    call.isBranch = true;
    call.taken = true;
    call.isStore = true;
    call.addr = 0x7fff0000;
    call.accessSize = 8;
    pmu.step(call);
    DynInst ret = makeInst(OpClass::Ret);
    ret.isBranch = true;
    ret.taken = true;
    ret.isLoad = true;
    ret.addr = 0x7fff0000;
    ret.accessSize = 8;
    pmu.step(ret);
    pmu.step(makeInst(OpClass::SystemOp));
    DynInst xchg = makeInst(OpClass::Xchg);
    xchg.isLoad = true;
    xchg.isStore = true;
    xchg.addr = 0x3000;
    xchg.accessSize = 8;
    pmu.step(xchg);

    EXPECT_EQ(count(pmu, Event::Calls), 1u);
    EXPECT_EQ(count(pmu, Event::Returns), 1u);
    EXPECT_EQ(count(pmu, Event::Syscalls), 1u);
    EXPECT_EQ(count(pmu, Event::Atomics), 1u);
}

TEST(PerfMonitor, ICacheMissesOnNewCode)
{
    PerfMonitor pmu;
    // Touch many distinct code lines.
    for (std::uint64_t pc = 0x400000; pc < 0x410000; pc += 64)
        pmu.step(makeInst(OpClass::IntAdd, pc));
    EXPECT_GT(count(pmu, Event::ICacheMisses), 0u);
    const std::uint64_t cold = count(pmu, Event::ICacheMisses);
    // A tight loop over one line misses no more.
    for (int i = 0; i < 1000; ++i)
        pmu.step(makeInst(OpClass::IntAdd, 0x500000));
    EXPECT_LE(count(pmu, Event::ICacheMisses), cold + 1);
}

TEST(PerfMonitor, DCacheMissesOnScatteredData)
{
    PerfMonitor pmu;
    for (std::uint64_t addr = 0; addr < 64 * 4096; addr += 4096)
        pmu.step(makeLoad(0x10000000 + addr));
    EXPECT_EQ(count(pmu, Event::DCacheMisses), 64u);
    // Re-touch a recent line: no new miss.
    pmu.step(makeLoad(0x10000000 + 63 * 4096));
    EXPECT_EQ(count(pmu, Event::DCacheMisses), 64u);
}

TEST(PerfMonitor, ClearCountsKeepsStructuralState)
{
    PerfMonitor pmu;
    pmu.step(makeLoad(0x9000));
    pmu.clearCounts();
    EXPECT_EQ(count(pmu, Event::Loads), 0u);
    // Structural state persists: the same line now hits, so the miss
    // counter stays zero after the clear.
    StepOutcome outcome = pmu.step(makeLoad(0x9000));
    EXPECT_EQ(outcome.dcacheMisses, 0u);
}

} // namespace

/**
 * @file
 * Tests of the CFG interpreter.
 */

#include <gtest/gtest.h>

#include <map>

#include "trace/execution.hh"
#include "trace/generator.hh"

namespace
{

using namespace rhmd::trace;

/** Sink collecting everything. */
class VectorSink
{
  public:
    void consume(const DynInst &inst) { insts.push_back(inst); }
    std::vector<DynInst> insts;
};

/** A tiny two-function program built by hand. */
Program
tinyProgram()
{
    Program prog;
    prog.name = "tiny";
    prog.regions.push_back({0x7fff00000000ULL, 1ULL << 20});  // stack
    prog.regions.push_back({0x10000000ULL, 1ULL << 16});      // data

    // main: block0 (2 adds, cond loop to self-ish), block1 (call f1),
    // block2 (exit)
    Function main_fn;
    {
        BasicBlock b0;
        b0.body.push_back({OpClass::IntAdd, {}, false});
        b0.body.push_back({OpClass::IntAdd, {}, false});
        b0.term.kind = TermKind::CondBranch;
        b0.term.takenTarget = 0;
        b0.term.fallTarget = 1;
        b0.term.takenProb = 0.5;
        main_fn.blocks.push_back(b0);

        BasicBlock b1;
        StaticInst load;
        load.op = OpClass::Load;
        load.mem.pattern = AddrPattern::Stride;
        load.mem.region = 1;
        load.mem.stride = 8;
        load.mem.accessSize = 8;
        b1.body.push_back(load);
        b1.term.kind = TermKind::Call;
        b1.term.callee = 1;
        b1.term.fallTarget = 2;
        main_fn.blocks.push_back(b1);

        BasicBlock b2;
        b2.term.kind = TermKind::Exit;
        main_fn.blocks.push_back(b2);
    }
    prog.functions.push_back(main_fn);

    // f1: one block ending in ret.
    Function f1;
    {
        BasicBlock b0;
        b0.body.push_back({OpClass::IntSub, {}, false});
        b0.term.kind = TermKind::Ret;
        f1.blocks.push_back(b0);
    }
    prog.functions.push_back(f1);

    prog.layoutCode();
    prog.validate();
    return prog;
}

TEST(Executor, EmitsExactBudget)
{
    const Program prog = tinyProgram();
    for (std::uint64_t budget : {1ULL, 7ULL, 100ULL, 5000ULL}) {
        VectorSink sink;
        Executor exec(prog, 1);
        exec.run(budget, sink);
        EXPECT_EQ(sink.insts.size(), budget);
    }
}

TEST(Executor, DeterministicForSameSeed)
{
    const Program prog = tinyProgram();
    VectorSink a;
    VectorSink b;
    Executor(prog, 5).run(500, a);
    Executor(prog, 5).run(500, b);
    ASSERT_EQ(a.insts.size(), b.insts.size());
    for (std::size_t i = 0; i < a.insts.size(); ++i) {
        EXPECT_EQ(a.insts[i].pc, b.insts[i].pc);
        EXPECT_EQ(a.insts[i].op, b.insts[i].op);
        EXPECT_EQ(a.insts[i].addr, b.insts[i].addr);
        EXPECT_EQ(a.insts[i].taken, b.insts[i].taken);
    }
}

TEST(Executor, DifferentSeedsDifferentBranches)
{
    const Program prog = tinyProgram();
    VectorSink a;
    VectorSink b;
    Executor(prog, 1).run(2000, a);
    Executor(prog, 2).run(2000, b);
    std::size_t diff = 0;
    for (std::size_t i = 0; i < a.insts.size(); ++i)
        diff += a.insts[i].pc != b.insts[i].pc ? 1 : 0;
    EXPECT_GT(diff, 0u);
}

TEST(Executor, BlockBodyPrecedesTerminator)
{
    const Program prog = tinyProgram();
    VectorSink sink;
    Executor(prog, 3).run(50, sink);
    // The first instructions must be the two adds then the branch.
    ASSERT_GE(sink.insts.size(), 3u);
    EXPECT_EQ(sink.insts[0].op, OpClass::IntAdd);
    EXPECT_EQ(sink.insts[1].op, OpClass::IntAdd);
    EXPECT_EQ(sink.insts[2].op, OpClass::BranchCond);
}

TEST(Executor, CallEmitsStoreAndRetEmitsLoad)
{
    const Program prog = tinyProgram();
    VectorSink sink;
    Executor(prog, 3).run(200, sink);
    bool saw_call = false;
    bool saw_ret = false;
    for (const DynInst &inst : sink.insts) {
        if (inst.op == OpClass::Call) {
            saw_call = true;
            EXPECT_TRUE(inst.isStore);
            EXPECT_TRUE(inst.isBranch);
            EXPECT_GT(inst.addr, 0u);
        }
        if (inst.op == OpClass::Ret) {
            saw_ret = true;
            EXPECT_TRUE(inst.isLoad);
            EXPECT_TRUE(inst.isBranch);
        }
    }
    EXPECT_TRUE(saw_call);
    EXPECT_TRUE(saw_ret);
}

TEST(Executor, CallTargetsCalleeEntry)
{
    const Program prog = tinyProgram();
    VectorSink sink;
    Executor(prog, 3).run(200, sink);
    const std::uint64_t callee_entry =
        prog.functions[1].blocks[0].address;
    for (std::size_t i = 0; i < sink.insts.size(); ++i) {
        if (sink.insts[i].op == OpClass::Call) {
            EXPECT_EQ(sink.insts[i].target, callee_entry);
            if (i + 1 < sink.insts.size()) {
                EXPECT_EQ(sink.insts[i + 1].pc, callee_entry);
            }
        }
    }
}

TEST(Executor, StrideAddressesAdvance)
{
    const Program prog = tinyProgram();
    VectorSink sink;
    Executor(prog, 3).run(400, sink);
    std::vector<std::uint64_t> loads;
    for (const DynInst &inst : sink.insts) {
        if (inst.op == OpClass::Load)
            loads.push_back(inst.addr);
    }
    ASSERT_GE(loads.size(), 2u);
    // Stride 8 within region 1.
    EXPECT_EQ(loads[1] - loads[0], 8u);
    const MemRegion &region = prog.regions[1];
    for (std::uint64_t addr : loads) {
        EXPECT_GE(addr, region.base);
        EXPECT_LT(addr, region.base + region.size);
    }
}

TEST(Executor, ExitRestartsAtEntry)
{
    const Program prog = tinyProgram();
    VectorSink sink;
    Executor(prog, 3).run(500, sink);
    const std::uint64_t entry = prog.functions[0].blocks[0].address;
    for (std::size_t i = 0; i + 1 < sink.insts.size(); ++i) {
        if (sink.insts[i].op == OpClass::SystemOp &&
            sink.insts[i].isBranch) {
            EXPECT_EQ(sink.insts[i + 1].pc, entry);
        }
    }
}

TEST(Executor, PcMatchesLayout)
{
    const Program prog = tinyProgram();
    VectorSink sink;
    Executor(prog, 3).run(100, sink);
    // Every emitted pc must be inside the text segment.
    const std::uint64_t text_base = prog.functions[0].blocks[0].address;
    for (const DynInst &inst : sink.insts) {
        EXPECT_GE(inst.pc, text_base);
        EXPECT_LT(inst.pc, text_base + prog.textBytes() + 1024);
    }
}

TEST(Executor, GeneratedProgramsRunWithoutViolations)
{
    GeneratorConfig config;
    config.benignCount = 6;
    config.malwareCount = 6;
    config.seed = 5;
    const ProgramGenerator gen(config);
    for (const Program &prog : gen.generateCorpus()) {
        VectorSink sink;
        Executor exec(prog, prog.seed);
        exec.run(20000, sink);
        ASSERT_EQ(sink.insts.size(), 20000u);
        // Memory accesses stay inside declared regions (or stack).
        for (const DynInst &inst : sink.insts) {
            if (!inst.isLoad && !inst.isStore)
                continue;
            bool inside = false;
            for (const MemRegion &region : prog.regions) {
                if (inst.addr >= region.base &&
                    inst.addr < region.base + region.size + 64) {
                    inside = true;
                    break;
                }
            }
            EXPECT_TRUE(inside) << "addr " << std::hex << inst.addr;
        }
    }
}

TEST(Executor, BranchTakenRateTracksProbability)
{
    // A single-block self-loop with known taken probability.
    Program prog;
    prog.name = "loop";
    prog.regions.push_back({0x7fff00000000ULL, 1ULL << 20});
    Function fn;
    BasicBlock b0;
    b0.body.push_back({OpClass::IntAdd, {}, false});
    b0.term.kind = TermKind::CondBranch;
    b0.term.takenTarget = 0;
    b0.term.fallTarget = 1;
    b0.term.takenProb = 0.7;
    fn.blocks.push_back(b0);
    BasicBlock b1;
    b1.term.kind = TermKind::Exit;
    fn.blocks.push_back(b1);
    prog.functions.push_back(fn);
    prog.layoutCode();

    VectorSink sink;
    // Disable phase modulation: this test checks the exact statistic.
    Executor(prog, 9, false).run(60000, sink);
    std::size_t taken = 0;
    std::size_t total = 0;
    for (const DynInst &inst : sink.insts) {
        if (inst.isCondBranch) {
            ++total;
            taken += inst.taken ? 1 : 0;
        }
    }
    ASSERT_GT(total, 1000u);
    EXPECT_NEAR(static_cast<double>(taken) / total, 0.7, 0.02);
}

} // namespace

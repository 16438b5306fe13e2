/**
 * @file
 * Tests of the evasion rewriter (instruction injection).
 */

#include <gtest/gtest.h>

#include <map>

#include "trace/execution.hh"
#include "trace/generator.hh"
#include "trace/injection.hh"

namespace
{

using namespace rhmd::trace;

Program
generated(std::uint64_t seed = 55)
{
    GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 1;
    config.seed = seed;
    return ProgramGenerator(config).generateCorpus().back();
}

TEST(Injection, PayloadInstIsMarkedInjected)
{
    const StaticInst inst = makePayloadInst(OpClass::FpAdd);
    EXPECT_TRUE(inst.injected);
    EXPECT_EQ(inst.op, OpClass::FpAdd);
}

TEST(Injection, PayloadMemoryOpsWalkTheStackRegion)
{
    const StaticInst inst = makePayloadInst(OpClass::Load);
    EXPECT_EQ(inst.mem.pattern, AddrPattern::Stride);
    EXPECT_EQ(inst.mem.region, 0);  // the stack region
    EXPECT_EQ(inst.mem.stride, 64);
}

TEST(Injection, Injectability)
{
    EXPECT_TRUE(isInjectable(OpClass::FpAdd));
    EXPECT_TRUE(isInjectable(OpClass::Load));
    EXPECT_TRUE(isInjectable(OpClass::Nop));
    // Control flow would redirect execution; unbalanced stack ops
    // would corrupt the program.
    EXPECT_FALSE(isInjectable(OpClass::Call));
    EXPECT_FALSE(isInjectable(OpClass::BranchCond));
    EXPECT_FALSE(isInjectable(OpClass::Push));
    EXPECT_FALSE(isInjectable(OpClass::Pop));
}

TEST(Injection, RejectsStackPayload)
{
    EXPECT_EXIT(makePayloadInst(OpClass::Pop),
                ::testing::ExitedWithCode(1), "semantics");
}

TEST(Injection, PayloadControlledStride)
{
    const StaticInst inst = makePayloadInst(OpClass::Load, 4096);
    EXPECT_EQ(inst.mem.pattern, AddrPattern::Stride);
    EXPECT_EQ(inst.mem.stride, 4096);
}

TEST(Injection, RejectsControlFlowPayload)
{
    EXPECT_EXIT(makePayloadInst(OpClass::Call),
                ::testing::ExitedWithCode(1), "semantics");
}

TEST(Injection, BlockLevelGrowsEveryBlock)
{
    const Program prog = generated();
    const std::vector<StaticInst> payload{
        makePayloadInst(OpClass::FpAdd),
        makePayloadInst(OpClass::FpAdd)};
    const Program modified =
        Injector::apply(prog, InjectLevel::Block, payload);

    ASSERT_EQ(modified.functions.size(), prog.functions.size());
    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        const auto &orig_blocks = prog.functions[f].blocks;
        const auto &mod_blocks = modified.functions[f].blocks;
        ASSERT_EQ(orig_blocks.size(), mod_blocks.size());
        for (std::size_t b = 0; b < orig_blocks.size(); ++b) {
            EXPECT_EQ(mod_blocks[b].body.size(),
                      orig_blocks[b].body.size() + 2);
            // Payload sits at the end, before the terminator.
            EXPECT_TRUE(mod_blocks[b].body.back().injected);
        }
    }
}

TEST(Injection, FunctionLevelOnlyGrowsRetBlocks)
{
    const Program prog = generated();
    const std::vector<StaticInst> payload{
        makePayloadInst(OpClass::LogicXor)};
    const Program modified =
        Injector::apply(prog, InjectLevel::Function, payload);

    for (std::size_t f = 0; f < prog.functions.size(); ++f) {
        const auto &orig_blocks = prog.functions[f].blocks;
        const auto &mod_blocks = modified.functions[f].blocks;
        for (std::size_t b = 0; b < orig_blocks.size(); ++b) {
            const std::size_t expected =
                orig_blocks[b].term.kind == TermKind::Ret
                    ? orig_blocks[b].body.size() + 1
                    : orig_blocks[b].body.size();
            EXPECT_EQ(mod_blocks[b].body.size(), expected);
        }
    }
}

TEST(Injection, PreservesOriginalInstructionSequence)
{
    // Executing the modified program and dropping injected
    // instructions must yield the original opcode sequence: the
    // rewriter is semantics-preserving.
    const Program prog = generated(56);
    const std::vector<StaticInst> payload{
        makePayloadInst(OpClass::Nop), makePayloadInst(OpClass::FpMul)};
    const Program modified =
        Injector::apply(prog, InjectLevel::Block, payload);

    class OpSink
    {
      public:
        explicit OpSink(bool keep_injected)
            : keepInjected(keep_injected) {}
        void
        consume(const DynInst &inst)
        {
            if (keepInjected || !inst.injected)
                ops.push_back(inst.op);
        }
        bool keepInjected;
        std::vector<OpClass> ops;
    };

    OpSink orig_ops(true);
    Executor(prog, 9).run(5000, orig_ops);
    OpSink mod_ops(false);
    Executor(modified, 9).run(7000, mod_ops);

    const std::size_t n =
        std::min(orig_ops.ops.size(), mod_ops.ops.size());
    ASSERT_GT(n, 3000u);
    for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(orig_ops.ops[i], mod_ops.ops[i]) << "at " << i;
}

TEST(Injection, StaticOverheadMatchesByteMath)
{
    const Program prog = generated(57);
    const std::vector<StaticInst> payload{
        makePayloadInst(OpClass::FpAdd)};
    const Program modified =
        Injector::apply(prog, InjectLevel::Block, payload);
    const double expected =
        static_cast<double>(modified.textBytes() - prog.textBytes()) /
        static_cast<double>(prog.textBytes());
    EXPECT_DOUBLE_EQ(staticOverhead(prog, modified), expected);
    EXPECT_GT(expected, 0.0);
}

TEST(Injection, DynamicOverheadGrowsWithCount)
{
    const Program prog = generated(58);
    double last = 0.0;
    for (std::size_t count : {1, 2, 5}) {
        const std::vector<StaticInst> payload(
            count, makePayloadInst(OpClass::FpAdd));
        const Program modified =
            Injector::apply(prog, InjectLevel::Block, payload);
        const double overhead = dynamicOverhead(modified, 50000, 3);
        EXPECT_GT(overhead, last);
        last = overhead;
    }
    // 5 instructions per ~8-instruction block is substantial.
    EXPECT_GT(last, 0.25);
}

TEST(Injection, FunctionLevelCheaperThanBlockLevel)
{
    const Program prog = generated(59);
    const std::vector<StaticInst> payload(
        3, makePayloadInst(OpClass::FpAdd));
    const Program block_mod =
        Injector::apply(prog, InjectLevel::Block, payload);
    const Program fn_mod =
        Injector::apply(prog, InjectLevel::Function, payload);
    EXPECT_GT(dynamicOverhead(block_mod, 50000, 3),
              dynamicOverhead(fn_mod, 50000, 3));
    EXPECT_GT(staticOverhead(prog, block_mod),
              staticOverhead(prog, fn_mod));
}

TEST(Injection, WeightedDrawsFollowWeights)
{
    const Program prog = generated(60);
    const std::vector<std::pair<OpClass, double>> weighted{
        {OpClass::FpAdd, 9.0}, {OpClass::Nop, 1.0}};
    const Program modified = Injector::applyWeighted(
        prog, InjectLevel::Block, 4, weighted, 17);

    std::map<OpClass, std::size_t> counts;
    for (const auto &fn : modified.functions) {
        for (const auto &block : fn.blocks) {
            for (const auto &inst : block.body) {
                if (inst.injected)
                    ++counts[inst.op];
            }
        }
    }
    ASSERT_GT(counts[OpClass::FpAdd], 0u);
    // 90/10 split within sampling noise.
    const double total = static_cast<double>(counts[OpClass::FpAdd] +
                                             counts[OpClass::Nop]);
    EXPECT_NEAR(counts[OpClass::FpAdd] / total, 0.9, 0.08);
}

TEST(Injection, RandomPayloadAvoidsControlFlow)
{
    const Program prog = generated(61);
    const Program modified =
        Injector::applyRandom(prog, InjectLevel::Block, 3, 23);
    for (const auto &fn : modified.functions) {
        for (const auto &block : fn.blocks) {
            for (const auto &inst : block.body) {
                if (inst.injected) {
                    EXPECT_FALSE(isControlFlow(inst.op));
                }
            }
        }
    }
    modified.validate();
}

TEST(Injection, RandomIsDeterministicPerSeed)
{
    const Program prog = generated(62);
    const Program a =
        Injector::applyRandom(prog, InjectLevel::Block, 2, 5);
    const Program b =
        Injector::applyRandom(prog, InjectLevel::Block, 2, 5);
    EXPECT_EQ(a.textBytes(), b.textBytes());
    for (std::size_t f = 0; f < a.functions.size(); ++f) {
        for (std::size_t blk = 0; blk < a.functions[f].blocks.size();
             ++blk) {
            const auto &ba = a.functions[f].blocks[blk].body;
            const auto &bb = b.functions[f].blocks[blk].body;
            ASSERT_EQ(ba.size(), bb.size());
            for (std::size_t i = 0; i < ba.size(); ++i)
                EXPECT_EQ(ba[i].op, bb[i].op);
        }
    }
}

} // namespace

/**
 * @file
 * Tests of dynamic CFG recovery.
 */

#include <gtest/gtest.h>

#include <set>

#include "trace/dcfg.hh"
#include "trace/generator.hh"

namespace
{

using namespace rhmd::trace;

Program
generated(std::uint64_t seed = 77)
{
    GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 1;
    config.seed = seed;
    const ProgramGenerator gen(config);
    return gen.generateCorpus().front();
}

TEST(Dcfg, RecoversOnlyExecutedBlockStarts)
{
    const Program prog = generated();
    DcfgBuilder dcfg;
    Executor(prog, 1).run(50000, dcfg);

    // Every recovered block start must be a static block address.
    std::set<std::uint64_t> static_starts;
    for (const auto &fn : prog.functions)
        for (const auto &block : fn.blocks)
            static_starts.insert(block.address);

    for (const auto &[pc, node] : dcfg.nodes()) {
        EXPECT_TRUE(static_starts.count(pc))
            << "recovered block at unknown pc " << std::hex << pc;
    }
    EXPECT_LE(dcfg.nodes().size(), static_starts.size());
    EXPECT_GT(dcfg.nodes().size(), 0u);
}

TEST(Dcfg, RecoveredOpsMatchStaticBlocks)
{
    const Program prog = generated(78);
    DcfgBuilder dcfg;
    Executor(prog, 2).run(50000, dcfg);

    for (const auto &fn : prog.functions) {
        for (const auto &block : fn.blocks) {
            const auto it = dcfg.nodes().find(block.address);
            if (it == dcfg.nodes().end())
                continue;  // block never executed
            const auto &node = it->second;
            ASSERT_EQ(node.ops.size(), block.instCount());
            for (std::size_t i = 0; i < block.body.size(); ++i)
                EXPECT_EQ(node.ops[i], block.body[i].op);
            EXPECT_EQ(node.ops.back(), block.terminatorOp());
        }
    }
}

TEST(Dcfg, RetBlocksIdentified)
{
    const Program prog = generated(79);
    DcfgBuilder dcfg;
    Executor(prog, 3).run(50000, dcfg);
    // Every recovered ret block is statically a ret block.
    std::set<std::uint64_t> static_rets;
    for (const auto &fn : prog.functions)
        for (const auto &block : fn.blocks)
            if (block.term.kind == TermKind::Ret)
                static_rets.insert(block.address);
    for (const auto &[pc, node] : dcfg.nodes()) {
        if (node.endsInRet) {
            EXPECT_TRUE(static_rets.count(pc));
        }
    }
    EXPECT_LE(dcfg.retBlockCount(), static_rets.size());
}

TEST(Dcfg, InstCountMatchesBudget)
{
    const Program prog = generated(80);
    DcfgBuilder dcfg;
    Executor(prog, 4).run(12345, dcfg);
    EXPECT_EQ(dcfg.instCount(), 12345u);
}

TEST(Dcfg, ExecCountsSumToBlockEntries)
{
    const Program prog = generated(81);
    DcfgBuilder dcfg;
    Executor(prog, 5).run(30000, dcfg);
    std::uint64_t ops_via_blocks = 0;
    for (const auto &[pc, node] : dcfg.nodes())
        ops_via_blocks += node.execCount * node.ops.size();
    // Executed instructions = complete blocks + a truncated tail.
    EXPECT_LE(ops_via_blocks, dcfg.instCount());
    EXPECT_GT(ops_via_blocks, dcfg.instCount() * 9 / 10);
}

TEST(Dcfg, SuccessorsAreBlockStarts)
{
    const Program prog = generated(82);
    DcfgBuilder dcfg;
    Executor(prog, 6).run(40000, dcfg);
    std::set<std::uint64_t> static_starts;
    for (const auto &fn : prog.functions)
        for (const auto &block : fn.blocks)
            static_starts.insert(block.address);

    for (const auto &[pc, node] : dcfg.nodes()) {
        for (const auto &[succ, count] : node.successors) {
            EXPECT_TRUE(static_starts.count(succ))
                << "edge to non-block pc " << std::hex << succ;
            EXPECT_GT(count, 0u);
        }
    }
    EXPECT_GT(dcfg.edgeCount(), 0u);
}

TEST(Dcfg, CondBranchYieldsAtMostTwoSuccessors)
{
    const Program prog = generated(83);
    DcfgBuilder dcfg;
    Executor(prog, 7).run(60000, dcfg);
    for (const auto &[pc, node] : dcfg.nodes()) {
        if (node.ops.back() == OpClass::BranchCond) {
            EXPECT_LE(node.successors.size(), 2u);
        }
        if (node.ops.back() == OpClass::BranchUncond) {
            EXPECT_LE(node.successors.size(), 1u);
        }
    }
}

} // namespace

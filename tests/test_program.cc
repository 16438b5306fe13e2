/**
 * @file
 * Tests of the program representation and the synthetic generator.
 */

#include <gtest/gtest.h>

#include "trace/generator.hh"
#include "trace/profiles.hh"

namespace
{

using namespace rhmd::trace;

GeneratorConfig
smallConfig()
{
    GeneratorConfig config;
    config.benignCount = 12;
    config.malwareCount = 12;
    config.seed = 99;
    return config;
}

TEST(Profiles, TwelveFamilies)
{
    EXPECT_EQ(benignProfiles().size(), 6u);
    EXPECT_EQ(malwareProfiles().size(), 6u);
    EXPECT_EQ(allProfiles().size(), 12u);
}

TEST(Profiles, LabelsAreConsistent)
{
    for (const auto &profile : benignProfiles())
        EXPECT_FALSE(profile.malware) << profile.name;
    for (const auto &profile : malwareProfiles())
        EXPECT_TRUE(profile.malware) << profile.name;
}

TEST(Profiles, MixesExcludeControlFlow)
{
    for (const auto &profile : allProfiles()) {
        ASSERT_EQ(profile.bodyMix.size(), kNumOpClasses) << profile.name;
        for (std::size_t i = 0; i < kNumOpClasses; ++i) {
            if (isControlFlow(opFromIndex(i))) {
                EXPECT_EQ(profile.bodyMix[i], 0.0) << profile.name;
            }
        }
    }
}

TEST(Profiles, MixSetReplacesBaselineWeights)
{
    const auto base = baselineBodyMix();
    const auto set = mixSet({{OpClass::IntAdd, 2.0}});
    const auto idx = static_cast<std::size_t>(OpClass::IntAdd);
    EXPECT_NEAR(set[idx], 2.0, 1e-12);
    for (std::size_t i = 0; i < base.size(); ++i) {
        if (i != idx) {
            EXPECT_EQ(set[i], base[i]);
        }
    }
}

/** Static instruction count of @p prog, terminators included. */
std::size_t
staticInsts(const Program &prog)
{
    std::size_t count = 0;
    for (const auto &fn : prog.functions)
        for (const auto &block : fn.blocks)
            count += block.instCount();
    return count;
}

TEST(Generator, DeterministicForSameSeed)
{
    const GeneratorConfig config = smallConfig();
    const ProgramGenerator gen(config);
    const auto a = gen.generateCorpus();
    const auto b = gen.generateCorpus();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].textBytes(), b[i].textBytes());
        EXPECT_EQ(staticInsts(a[i]), staticInsts(b[i]));
    }
}

TEST(Generator, CorpusCountsAndLabels)
{
    const ProgramGenerator gen(smallConfig());
    const auto corpus = gen.generateCorpus();
    ASSERT_EQ(corpus.size(), 24u);
    std::size_t malware = 0;
    for (const auto &prog : corpus)
        malware += prog.malware ? 1 : 0;
    EXPECT_EQ(malware, 12u);
    // benignCount programs come first.
    for (std::size_t i = 0; i < 12; ++i)
        EXPECT_FALSE(corpus[i].malware);
}

TEST(Generator, FamiliesRoundRobin)
{
    const ProgramGenerator gen(smallConfig());
    const auto corpus = gen.generateCorpus();
    // 12 benign programs over 6 families: each family exactly twice.
    std::vector<int> counts(12, 0);
    for (std::size_t i = 0; i < 12; ++i)
        ++counts[corpus[i].family];
    for (std::size_t f = 0; f < 6; ++f)
        EXPECT_EQ(counts[f], 2) << "benign family " << f;
}

TEST(Generator, ProgramsValidate)
{
    const ProgramGenerator gen(smallConfig());
    for (const auto &prog : gen.generateCorpus())
        prog.validate();  // panics on violation
}

TEST(Program, RejectsNonPowerOfTwoAccessSize)
{
    const ProgramGenerator gen(smallConfig());
    Program prog = gen.generateCorpus().front();
    for (auto &fn : prog.functions)
        for (auto &block : fn.blocks)
            for (auto &inst : block.body)
                if (accessesMemory(inst.op))
                    inst.mem.accessSize = 3;
    EXPECT_DEATH(prog.validate(), "access size not a power of two");
}

TEST(Generator, StackIsRegionZero)
{
    const ProgramGenerator gen(smallConfig());
    const auto corpus = gen.generateCorpus();
    for (const auto &prog : corpus) {
        ASSERT_GE(prog.regions.size(), 2u);
        EXPECT_EQ(prog.regions[0].base, 0x7fff00000000ULL);
    }
}

TEST(Generator, RejectsBadBlend)
{
    GeneratorConfig config = smallConfig();
    config.commonBlend = 1.5;
    EXPECT_EXIT(ProgramGenerator{config},
                ::testing::ExitedWithCode(1), "commonBlend");
}

TEST(Program, LayoutAssignsMonotonicAddresses)
{
    const ProgramGenerator gen(smallConfig());
    auto corpus = gen.generateCorpus();
    const Program &prog = corpus.front();
    std::uint64_t last = 0;
    for (const auto &fn : prog.functions) {
        for (const auto &block : fn.blocks) {
            EXPECT_GT(block.address, last);
            last = block.address;
        }
    }
}

TEST(Program, TextBytesMatchesBlockSizes)
{
    const ProgramGenerator gen(smallConfig());
    const auto corpus = gen.generateCorpus();
    const Program &prog = corpus.front();
    std::uint64_t total = 0;
    for (const auto &fn : prog.functions)
        for (const auto &block : fn.blocks)
            total += block.byteSize();
    EXPECT_EQ(prog.textBytes(), total);
}

TEST(Generator, MultiFunctionProgramsReturn)
{
    const ProgramGenerator gen(smallConfig());
    for (const auto &prog : gen.generateCorpus()) {
        if (prog.functions.size() < 2)
            continue;
        bool has_ret = false;
        for (const auto &fn : prog.functions)
            for (const auto &block : fn.blocks)
                has_ret = has_ret || block.term.kind == TermKind::Ret;
        EXPECT_TRUE(has_ret) << prog.name;
    }
}

TEST(BasicBlock, TerminatorOpMapping)
{
    EXPECT_EQ(terminatorOpClass(TermKind::CondBranch),
              OpClass::BranchCond);
    EXPECT_EQ(terminatorOpClass(TermKind::Jump), OpClass::BranchUncond);
    EXPECT_EQ(terminatorOpClass(TermKind::Call), OpClass::Call);
    EXPECT_EQ(terminatorOpClass(TermKind::Ret), OpClass::Ret);
    EXPECT_EQ(terminatorOpClass(TermKind::Exit), OpClass::SystemOp);
}

TEST(BasicBlock, InstCountIncludesTerminator)
{
    BasicBlock block;
    block.body.resize(3);
    EXPECT_EQ(block.instCount(), 4u);
}

/** Property sweep: every family generates valid, plausible programs. */
class FamilySweep : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(FamilySweep, GeneratedProgramIsPlausible)
{
    const auto &profile = allProfiles()[GetParam()];
    const ProgramGenerator gen(smallConfig());
    const Program prog = gen.generate(
        profile, static_cast<std::uint32_t>(GetParam()), 1234);
    prog.validate();
    EXPECT_EQ(prog.malware, profile.malware);
    EXPECT_GE(prog.functions.size(), profile.minFunctions);
    EXPECT_LE(prog.functions.size(), profile.maxFunctions);
    EXPECT_GE(prog.regions.size(),
              static_cast<std::size_t>(profile.minRegions) + 1);
    EXPECT_GT(staticInsts(prog), 30u);
    EXPECT_GT(prog.textBytes(), 100u);
    // The entry function's last block exits the program.
    EXPECT_EQ(prog.functions[0].blocks.back().term.kind, TermKind::Exit);
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, FamilySweep,
                         ::testing::Range<std::size_t>(0, 12));

} // namespace

/**
 * @file
 * Tests of corpus extraction and the 60/20/20 split.
 */

#include <gtest/gtest.h>

#include <set>

#include "features/corpus.hh"
#include "trace/generator.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::features;

FeatureCorpus
smallCorpus(std::uint64_t seed = 33)
{
    trace::GeneratorConfig gen;
    gen.benignCount = 12;
    gen.malwareCount = 24;
    gen.seed = seed;
    const auto programs =
        trace::ProgramGenerator(gen).generateCorpus();

    ExtractConfig extract;
    extract.periods = {5000, 10000};
    extract.traceInsts = 30000;
    return extractCorpus(programs, extract);
}

TEST(Corpus, ProgramsCarryLabelsAndWindows)
{
    const FeatureCorpus corpus = smallCorpus();
    EXPECT_EQ(corpus.programs.size(), 36u);
    EXPECT_EQ(corpus.malwareCount(), 24u);
    for (const ProgramFeatures &prog : corpus.programs) {
        EXPECT_EQ(prog.windows(5000).size(), 6u);
        EXPECT_EQ(prog.windows(10000).size(), 3u);
    }
}

TEST(Corpus, ExtractionIsDeterministic)
{
    const FeatureCorpus a = smallCorpus(44);
    const FeatureCorpus b = smallCorpus(44);
    ASSERT_EQ(a.programs.size(), b.programs.size());
    for (std::size_t i = 0; i < a.programs.size(); ++i) {
        const auto &wa = a.programs[i].windows(10000);
        const auto &wb = b.programs[i].windows(10000);
        ASSERT_EQ(wa.size(), wb.size());
        for (std::size_t w = 0; w < wa.size(); ++w) {
            EXPECT_EQ(wa[w].opcodeCounts, wb[w].opcodeCounts);
            EXPECT_EQ(wa[w].memDeltaBins, wb[w].memDeltaBins);
            EXPECT_EQ(wa[w].events, wb[w].events);
        }
    }
}

TEST(Corpus, MissingPeriodPanics)
{
    const FeatureCorpus corpus = smallCorpus();
    EXPECT_DEATH(corpus.programs[0].windows(1234), "no windows");
}

TEST(Split, PartitionsAllPrograms)
{
    const FeatureCorpus corpus = smallCorpus();
    const SplitIndices split = stratifiedSplit(corpus, 7);

    std::set<std::size_t> all;
    for (std::size_t i : split.victimTrain)
        EXPECT_TRUE(all.insert(i).second);
    for (std::size_t i : split.attackerTrain)
        EXPECT_TRUE(all.insert(i).second);
    for (std::size_t i : split.attackerTest)
        EXPECT_TRUE(all.insert(i).second);
    EXPECT_EQ(all.size(), corpus.programs.size());
}

TEST(Split, ProportionsRoughly602020)
{
    const FeatureCorpus corpus = smallCorpus();
    const SplitIndices split = stratifiedSplit(corpus, 8);
    const double n = static_cast<double>(corpus.programs.size());
    EXPECT_NEAR(split.victimTrain.size() / n, 0.6, 0.1);
    EXPECT_NEAR(split.attackerTrain.size() / n, 0.2, 0.1);
    EXPECT_NEAR(split.attackerTest.size() / n, 0.2, 0.1);
}

TEST(Split, EverySubsetHasBothClasses)
{
    const FeatureCorpus corpus = smallCorpus();
    const SplitIndices split = stratifiedSplit(corpus, 9);
    auto has_both = [&](const std::vector<std::size_t> &idx) {
        bool mal = false;
        bool ben = false;
        for (std::size_t i : idx) {
            (corpus.programs[i].malware ? mal : ben) = true;
        }
        return mal && ben;
    };
    EXPECT_TRUE(has_both(split.victimTrain));
    EXPECT_TRUE(has_both(split.attackerTrain));
    EXPECT_TRUE(has_both(split.attackerTest));
}

TEST(Split, StratifiedByFamily)
{
    const FeatureCorpus corpus = smallCorpus();
    const SplitIndices split = stratifiedSplit(corpus, 10);
    // Every malware family (4 members each) must appear in the
    // victim training set.
    std::set<std::uint32_t> victim_families;
    for (std::size_t i : split.victimTrain) {
        if (corpus.programs[i].malware)
            victim_families.insert(corpus.programs[i].family);
    }
    EXPECT_EQ(victim_families.size(), 6u);
}

TEST(Split, DeterministicPerSeed)
{
    const FeatureCorpus corpus = smallCorpus();
    const SplitIndices a = stratifiedSplit(corpus, 11);
    const SplitIndices b = stratifiedSplit(corpus, 11);
    EXPECT_EQ(a.victimTrain, b.victimTrain);
    EXPECT_EQ(a.attackerTrain, b.attackerTrain);
    EXPECT_EQ(a.attackerTest, b.attackerTest);

    const SplitIndices c = stratifiedSplit(corpus, 12);
    EXPECT_NE(a.victimTrain, c.victimTrain);
}

TEST(Corpus, EmitPartialWindowsKeepsTheTail)
{
    trace::GeneratorConfig gen;
    gen.benignCount = 2;
    gen.malwareCount = 2;
    gen.seed = 55;
    const auto programs =
        trace::ProgramGenerator(gen).generateCorpus();

    // 32000 instructions: 6 full 5K windows + a 2K tail, 3 full 10K
    // windows + the same 2K tail.
    ExtractConfig extract;
    extract.periods = {5000, 10000};
    extract.traceInsts = 32000;

    const FeatureCorpus strict = extractCorpus(programs, extract);
    extract.emitPartialWindows = true;
    const FeatureCorpus flushed = extractCorpus(programs, extract);

    for (std::size_t i = 0; i < programs.size(); ++i) {
        const ProgramFeatures &s = strict.programs[i];
        const ProgramFeatures &f = flushed.programs[i];
        EXPECT_EQ(s.windows(5000).size(), 6u);
        EXPECT_EQ(s.windows(10000).size(), 3u);
        ASSERT_EQ(f.windows(5000).size(), 7u);
        ASSERT_EQ(f.windows(10000).size(), 4u);
        // The full windows are identical to the strict extraction;
        // only the flagged tail is new.
        for (std::size_t w = 0; w < 6; ++w) {
            EXPECT_FALSE(f.windows(5000)[w].truncated);
            EXPECT_EQ(f.windows(5000)[w].opcodeCounts,
                      s.windows(5000)[w].opcodeCounts);
        }
        EXPECT_TRUE(f.windows(5000).back().truncated);
        EXPECT_EQ(f.windows(5000).back().instCount, 2000u);
        EXPECT_TRUE(f.windows(10000).back().truncated);
        EXPECT_EQ(f.windows(10000).back().instCount, 2000u);
    }
}

TEST(Corpus, InjectedFracZeroForCleanPrograms)
{
    const FeatureCorpus corpus = smallCorpus();
    for (const ProgramFeatures &prog : corpus.programs) {
        for (const RawWindow &w : prog.windows(10000))
            EXPECT_EQ(w.injectedFrac, 0.0);
    }
}

} // namespace

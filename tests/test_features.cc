/**
 * @file
 * Tests of feature extraction: windows, delta bins, specs, and the
 * multi-period session.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hh"
#include "corpus/cache.hh"
#include "features/corpus.hh"
#include "features/extractor.hh"
#include "features/spec.hh"
#include "trace/dcfg.hh"
#include "trace/generator.hh"
#include "trace/injection.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::features;
using trace::OpClass;

TEST(MemDeltaBin, KnownCases)
{
    EXPECT_EQ(memDeltaBin(100, 100), 0u);   // delta 0
    EXPECT_EQ(memDeltaBin(100, 101), 1u);   // delta 1
    EXPECT_EQ(memDeltaBin(101, 100), 1u);   // symmetric
    EXPECT_EQ(memDeltaBin(100, 102), 2u);   // delta 2
    EXPECT_EQ(memDeltaBin(100, 103), 2u);   // delta 3
    EXPECT_EQ(memDeltaBin(100, 104), 3u);   // delta 4
    EXPECT_EQ(memDeltaBin(0, 1ULL << 40), kNumMemBins - 1);  // clamp
}

TEST(MemDeltaBin, BinBoundaries)
{
    // bin k covers [2^(k-1), 2^k).
    for (std::size_t k = 1; k + 1 < kNumMemBins; ++k) {
        EXPECT_EQ(memDeltaBin(0, 1ULL << (k - 1)), k);
        EXPECT_EQ(memDeltaBin(0, (1ULL << k) - 1), k);
    }
}

TEST(FeatureSpec, Dimensions)
{
    FeatureSpec inst;
    inst.kind = FeatureKind::Instructions;
    inst.opcodeSel = {0, 5, 9};
    EXPECT_EQ(inst.dim(), 3u);

    FeatureSpec mem;
    mem.kind = FeatureKind::Memory;
    EXPECT_EQ(mem.dim(), kNumMemBins);

    FeatureSpec arch;
    arch.kind = FeatureKind::Architectural;
    EXPECT_EQ(arch.dim(), uarch::kNumEvents);
}

/** @p spec's feature vector for @p window, through fillCombined. */
std::vector<double>
featureVector(const FeatureSpec &spec, const RawWindow &window)
{
    std::vector<double> v(spec.dim());
    fillCombined({spec}, window, v.data());
    return v;
}

TEST(FeatureSpec, ToVectorNormalizesByWindowLength)
{
    RawWindow window;
    window.instCount = 100;
    window.opcodeCounts[3] = 20;
    window.opcodeCounts[7] = 5;

    FeatureSpec spec;
    spec.kind = FeatureKind::Instructions;
    spec.opcodeSel = {3, 7, 9};
    const auto v = featureVector(spec, window);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_NEAR(v[0], 0.20, 1e-12);
    EXPECT_NEAR(v[1], 0.05, 1e-12);
    EXPECT_NEAR(v[2], 0.0, 1e-12);
}

TEST(FeatureSpec, MemoryVectorUsesBins)
{
    RawWindow window;
    window.instCount = 50;
    window.memDeltaBins[2] = 10;
    FeatureSpec spec;
    spec.kind = FeatureKind::Memory;
    const auto v = featureVector(spec, window);
    EXPECT_NEAR(v[2], 0.2, 1e-12);
}

TEST(FeatureSpec, ArchitecturalVectorUsesEvents)
{
    RawWindow window;
    window.instCount = 200;
    window.events[static_cast<std::size_t>(uarch::Event::Loads)] = 50;
    FeatureSpec spec;
    spec.kind = FeatureKind::Architectural;
    const auto v = featureVector(spec, window);
    EXPECT_NEAR(v[static_cast<std::size_t>(uarch::Event::Loads)], 0.25,
                1e-12);
}

TEST(FeatureSpec, Describe)
{
    FeatureSpec spec;
    spec.kind = FeatureKind::Instructions;
    spec.period = 10000;
    EXPECT_EQ(spec.describe(), "instructions@10k");
    spec.kind = FeatureKind::Memory;
    spec.period = 5500;
    EXPECT_EQ(spec.describe(), "memory@5500");
}

TEST(FeatureSpec, CombinedConcatenates)
{
    RawWindow window;
    window.instCount = 10;
    window.opcodeCounts[0] = 5;
    window.memDeltaBins[1] = 2;

    FeatureSpec inst;
    inst.kind = FeatureKind::Instructions;
    inst.opcodeSel = {0};
    FeatureSpec mem;
    mem.kind = FeatureKind::Memory;

    ASSERT_EQ(combinedDim({inst, mem}), 1 + kNumMemBins);
    std::vector<double> v(1 + kNumMemBins, -1.0);
    fillCombined({inst, mem}, window, v.data());
    EXPECT_NEAR(v[0], 0.5, 1e-12);
    EXPECT_NEAR(v[2], 0.2, 1e-12);
}

TEST(SelectTopDelta, PicksTheDiscriminativeOpcode)
{
    // Malware windows use opcode 4 heavily; benign use opcode 8.
    std::vector<RawWindow> storage(20);
    std::vector<const RawWindow *> windows;
    std::vector<bool> labels;
    for (int i = 0; i < 20; ++i) {
        RawWindow &w = storage[i];
        w.instCount = 100;
        const bool malware = i % 2 == 0;
        w.opcodeCounts[4] = malware ? 50 : 5;
        w.opcodeCounts[8] = malware ? 5 : 50;
        w.opcodeCounts[2] = 30;  // common, no delta
        windows.push_back(&w);
        labels.push_back(malware);
    }
    const auto sel = selectTopDeltaOpcodes(windows, labels, 2);
    ASSERT_EQ(sel.size(), 2u);
    EXPECT_TRUE((sel[0] == 4 && sel[1] == 8) ||
                (sel[0] == 8 && sel[1] == 4));
}

TEST(SelectTopDelta, RequiresBothClasses)
{
    std::vector<RawWindow> storage(4);
    std::vector<const RawWindow *> windows;
    std::vector<bool> labels(4, true);
    for (auto &w : storage) {
        w.instCount = 10;
        windows.push_back(&w);
    }
    EXPECT_EXIT(selectTopDeltaOpcodes(windows, labels, 2),
                ::testing::ExitedWithCode(1), "both classes");
}

TEST(FeatureSession, WindowCountsPerPeriod)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    FeatureSession session({1000, 2000, 3000});
    trace::Executor(programs[0], 1).run(10000, session);
    EXPECT_EQ(session.windows(1000).size(), 10u);
    EXPECT_EQ(session.windows(2000).size(), 5u);
    EXPECT_EQ(session.windows(3000).size(), 3u);  // trailing discarded
    EXPECT_EQ(session.totalInsts(), 10000u);
}

TEST(FeatureSession, OpcodeCountsSumToWindowLength)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    FeatureSession session({2500});
    trace::Executor(programs[0], 2).run(10000, session);
    for (const RawWindow &window : session.windows(2500)) {
        std::uint64_t total = 0;
        for (std::uint32_t c : window.opcodeCounts)
            total += c;
        EXPECT_EQ(total, window.instCount);
        EXPECT_EQ(window.instCount, 2500u);
    }
}

TEST(FeatureSession, ShortAndLongPeriodsAgreeOnTotals)
{
    trace::GeneratorConfig config;
    config.benignCount = 0;
    config.malwareCount = 1;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    FeatureSession session({1000, 5000});
    trace::Executor(programs[0], 3).run(5000, session);
    // The five 1K windows partition the single 5K window.
    const auto &small = session.windows(1000);
    const auto &big = session.windows(5000);
    ASSERT_EQ(small.size(), 5u);
    ASSERT_EQ(big.size(), 1u);
    for (std::size_t op = 0; op < trace::kNumOpClasses; ++op) {
        std::uint64_t sum = 0;
        for (const RawWindow &w : small)
            sum += w.opcodeCounts[op];
        EXPECT_EQ(sum, big[0].opcodeCounts[op]);
    }
    for (std::size_t e = 0; e < uarch::kNumEvents; ++e) {
        std::uint64_t sum = 0;
        for (const RawWindow &w : small)
            sum += w.events[e];
        EXPECT_EQ(sum, big[0].events[e]);
    }
}

TEST(FeatureSession, MemBinsCountMemoryInstructions)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    FeatureSession session({5000});
    trace::Executor(programs[0], 4).run(10000, session);
    for (const RawWindow &window : session.windows(5000)) {
        std::uint64_t bin_total = 0;
        for (std::uint32_t c : window.memDeltaBins)
            bin_total += c;
        const std::uint64_t loads = window.events[static_cast<std::size_t>(
            uarch::Event::Loads)];
        const std::uint64_t stores = window.events[static_cast<std::size_t>(
            uarch::Event::Stores)];
        // Every memory instruction after the first contributes one
        // delta. Some opcodes (rep-movs, xchg) are both a load and a
        // store — one instruction, two event counts, one delta — so
        // the bin total sits a little below loads + stores.
        EXPECT_LE(bin_total, loads + stores);
        EXPECT_GE(bin_total + 1, (loads + stores) * 4 / 5);
    }
}

TEST(FeatureSession, CyclesArePositiveAndAdditive)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    FeatureSession session({2000});
    trace::Executor(programs[0], 5).run(8000, session);
    double window_cycles = 0.0;
    for (const RawWindow &w : session.windows(2000)) {
        EXPECT_GT(w.cycles, 0.0);
        window_cycles += w.cycles;
    }
    EXPECT_LE(window_cycles, session.totalCycles() + 1e-9);
}

TEST(FeatureSession, FinishFlushesTruncatedTail)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    // 10000 % 3000 != 0: three full windows plus a 1000-instruction
    // tail that only finish() preserves.
    FeatureSession session({3000});
    trace::Executor(programs[0], 6).run(10000, session);
    ASSERT_EQ(session.windows(3000).size(), 3u);
    session.finish();
    const auto &windows = session.windows(3000);
    ASSERT_EQ(windows.size(), 4u);
    for (std::size_t w = 0; w < 3; ++w) {
        EXPECT_FALSE(windows[w].truncated);
        EXPECT_EQ(windows[w].instCount, 3000u);
    }
    const RawWindow &tail = windows[3];
    EXPECT_TRUE(tail.truncated);
    EXPECT_EQ(tail.instCount, 1000u);
    // The tail is a real window: its opcode counts cover exactly its
    // instructions and its cycle estimate is positive.
    std::uint64_t total = 0;
    for (std::uint32_t c : tail.opcodeCounts)
        total += c;
    EXPECT_EQ(total, tail.instCount);
    EXPECT_GT(tail.cycles, 0.0);
}

TEST(FeatureSession, FinishEmitsWholeTraceWhenPeriodExceedsIt)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    // A program shorter than its period loses everything without
    // finish(); with it, the whole trace becomes one truncated
    // window.
    FeatureSession session({20000});
    trace::Executor(programs[0], 7).run(10000, session);
    EXPECT_TRUE(session.windows(20000).empty());
    session.finish();
    const auto &windows = session.windows(20000);
    ASSERT_EQ(windows.size(), 1u);
    EXPECT_TRUE(windows[0].truncated);
    EXPECT_EQ(windows[0].instCount, 10000u);
}

TEST(FeatureSession, FinishIsIdempotentAndSkipsExactBoundaries)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    FeatureSession session({2500, 3000});
    trace::Executor(programs[0], 8).run(10000, session);
    session.finish();
    session.finish();
    // 2500 divides 10000: no partial window existed, so finish()
    // added nothing; 3000 gained exactly one tail, once.
    const auto &exact = session.windows(2500);
    ASSERT_EQ(exact.size(), 4u);
    for (const RawWindow &w : exact)
        EXPECT_FALSE(w.truncated);
    EXPECT_EQ(session.windows(3000).size(), 4u);
    EXPECT_TRUE(session.windows(3000).back().truncated);
}

TEST(FeatureSession, TakeWindowsMovesInsteadOfCopying)
{
    trace::GeneratorConfig config;
    config.benignCount = 1;
    config.malwareCount = 0;
    const auto programs =
        trace::ProgramGenerator(config).generateCorpus();

    FeatureSession session({1000});
    trace::Executor(programs[0], 9).run(10000, session);
    const RawWindow *storage = session.windows(1000).data();
    const std::vector<RawWindow> taken = session.takeWindows(1000);
    ASSERT_EQ(taken.size(), 10u);
    // Same backing storage: the vector was moved out, not copied,
    // and the session's vector is left empty.
    EXPECT_EQ(taken.data(), storage);
    EXPECT_TRUE(session.windows(1000).empty());
}

TEST(FeatureSession, RejectsBadPeriods)
{
    EXPECT_EXIT(FeatureSession({}), ::testing::ExitedWithCode(1),
                "at least one");
    EXPECT_EXIT(FeatureSession({1000, 1000}),
                ::testing::ExitedWithCode(1), "unique");
    EXPECT_EXIT(FeatureSession({0}), ::testing::ExitedWithCode(1),
                "positive");
}

/** FNV-1a over 64-bit words; doubles enter by bit pattern. */
class WindowDigest
{
  public:
    void
    add(std::uint64_t word)
    {
        hash_ ^= word;
        hash_ *= 0x100000001b3ULL;
    }

    void add(double value) { add(std::bit_cast<std::uint64_t>(value)); }

    void
    add(const RawWindow &win)
    {
        for (std::uint32_t count : win.opcodeCounts)
            add(std::uint64_t{count});
        for (std::uint32_t bin : win.memDeltaBins)
            add(std::uint64_t{bin});
        for (std::uint64_t event : win.events)
            add(event);
        add(win.instCount);
        add(win.cycles);
        add(win.injectedFrac);
        add(std::uint64_t{win.truncated});
    }

    void
    add(const ProgramFeatures &program)
    {
        add(std::uint64_t{program.family});
        add(std::uint64_t{program.malware});
        for (const auto &[period, windows] : program.byPeriod) {
            add(std::uint64_t{period});
            add(std::uint64_t{windows.size()});
            for (const RawWindow &win : windows)
                add(win);
        }
    }

    std::string
    hex() const
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Pins the simulator's output: execution, the cache/predictor/PMU
 * models, the CPI model and window slicing. Any change to what
 * extractProgram, the injector's executed stream or the DCFG sink
 * observe changes the digest. The constant was computed from the
 * simulator before its loop was fused and inlined; an intended
 * change to the simulated machine must re-derive it and say so.
 * Program generation's Gaussian draws (log, sin, cos) and its
 * exp/exp2 noise come from libm, so a different libm may move it.
 */
TEST(ExtractGolden, SimulatorOutputIsPinned)
{
    const core::ExperimentConfig preset =
        corpus::presetConfig("standard", true);
    const std::vector<trace::Program> population =
        trace::ProgramGenerator(core::generatorConfigOf(preset))
            .generateCorpus();
    // The first member of each behaviour family.
    std::vector<const trace::Program *> programs;
    for (const trace::Program &program : population) {
        if (program.family >= programs.size())
            programs.resize(program.family + 1, nullptr);
        if (programs[program.family] == nullptr)
            programs[program.family] = &program;
    }
    ASSERT_EQ(programs.size(), 12u);

    ExtractConfig steady = core::extractConfigOf(preset);
    ASSERT_EQ(steady.periods, (std::vector<std::uint32_t>{5000, 10000}));
    ASSERT_EQ(steady.traceInsts, 80000u);
    ExtractConfig partial = steady;
    partial.periods = {3000, 7000};
    partial.traceInsts = 50000;
    partial.emitPartialWindows = true;

    WindowDigest digest;
    for (const trace::Program *program : programs) {
        ASSERT_NE(program, nullptr);
        digest.add(extractProgram(*program, steady));
        digest.add(extractProgram(*program, partial));
    }

    // A weighted block-level rewrite: injected instructions reach the
    // windows (injectedFrac) and the dynamic-overhead sink.
    const trace::Program &malware = *programs.back();
    ASSERT_TRUE(malware.malware);
    const trace::Program rewritten = trace::Injector::applyWeighted(
        malware, trace::InjectLevel::Block, 3,
        {{OpClass::Load, 2.0}, {OpClass::IntAdd, 1.0},
         {OpClass::Store, 1.0}, {OpClass::FpMul, 0.5}},
        77);
    const ProgramFeatures injected = extractProgram(rewritten, steady);
    ASSERT_GT(injected.windows(5000).front().injectedFrac, 0.0);
    digest.add(injected);
    digest.add(trace::dynamicOverhead(rewritten, 30000, 5));

    trace::DcfgBuilder dcfg;
    trace::Executor(*programs.front(), 9).run(40000, dcfg);
    digest.add(std::uint64_t{dcfg.nodes().size()});
    digest.add(std::uint64_t{dcfg.edgeCount()});
    digest.add(std::uint64_t{dcfg.retBlockCount()});
    digest.add(dcfg.instCount());

    EXPECT_EQ(digest.hex(), "4e8173a7a648b64d");
}

TEST(FeatureKindName, Names)
{
    EXPECT_STREQ(featureKindName(FeatureKind::Instructions),
                 "instructions");
    EXPECT_STREQ(featureKindName(FeatureKind::Memory), "memory");
    EXPECT_STREQ(featureKindName(FeatureKind::Architectural),
                 "architectural");
}

} // namespace

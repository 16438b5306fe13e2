/**
 * @file
 * Property tests of the substrate mechanisms DESIGN.md's calibration
 * section documents: quota sampling, phase behaviour, per-function
 * mixes, and bimodal hardness. These are the properties the paper's
 * figures depend on, so they are pinned here.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "features/extractor.hh"
#include "support/stats.hh"
#include "trace/generator.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::trace;

/** Dynamic opcode frequencies of one program execution. */
std::vector<double>
dynamicMix(const Program &prog, std::uint64_t insts,
           bool phases = true, std::uint64_t seed = 1)
{
    class CountSink
    {
      public:
        void
        consume(const DynInst &inst)
        {
            ++counts[static_cast<std::size_t>(inst.op)];
            ++total;
        }
        std::array<std::uint64_t, kNumOpClasses> counts{};
        std::uint64_t total = 0;
    };
    CountSink sink;
    Executor(prog, seed, phases).run(insts, sink);
    std::vector<double> mix(kNumOpClasses);
    for (std::size_t i = 0; i < kNumOpClasses; ++i)
        mix[i] = static_cast<double>(sink.counts[i]) /
                 static_cast<double>(sink.total);
    return mix;
}

/** Cosine similarity between two non-negative vectors. */
double
cosine(const std::vector<double> &a, const std::vector<double> &b)
{
    return dot(a, b) / (norm(a) * norm(b) + 1e-12);
}

GeneratorConfig
config(double quota, double hard_frac = 0.0)
{
    GeneratorConfig cfg;
    cfg.benignCount = 8;
    cfg.malwareCount = 8;
    cfg.seed = 99;
    cfg.quotaFrac = quota;
    cfg.hardFrac = hard_frac;
    return cfg;
}

TEST(Substrate, DynamicMixTracksProfileMix)
{
    // Quota sampling is there so the executed instruction mix of a
    // program resembles its family's body mix (restricted to
    // non-control opcodes).
    const auto &profiles = allProfiles();
    const ProgramGenerator gen(config(0.7));
    for (std::size_t f = 0; f < profiles.size(); ++f) {
        const Program prog = gen.generate(
            profiles[f], static_cast<std::uint32_t>(f), 1234 + f);
        const std::vector<double> executed =
            dynamicMix(prog, 60000);
        // Project the executed mix onto the non-control classes.
        std::vector<double> body_part(kNumOpClasses, 0.0);
        for (std::size_t i = 0; i < kNumOpClasses; ++i) {
            if (!isControlFlow(opFromIndex(i)))
                body_part[i] = executed[i];
        }
        std::vector<double> profile_mix = profiles[f].bodyMix;
        normalizeInPlace(profile_mix);
        // Short-block families dilute more into control flow and
        // carry more per-function jitter, hence the modest floor.
        EXPECT_GT(cosine(body_part, profile_mix), 0.7)
            << profiles[f].name;
    }
}

TEST(Substrate, QuotaSamplingReducesCrossProgramVariance)
{
    // Without quota sampling, two programs of the same family have
    // far more divergent dynamic mixes.
    auto spread_for = [](double quota) {
        const ProgramGenerator gen(config(quota));
        const auto &profile = benignProfiles()[0];
        std::vector<std::vector<double>> mixes;
        for (std::uint64_t s = 0; s < 6; ++s) {
            const Program prog = gen.generate(profile, 0, 500 + s);
            mixes.push_back(dynamicMix(prog, 40000));
        }
        double total = 0.0;
        int pairs = 0;
        for (std::size_t a = 0; a < mixes.size(); ++a) {
            for (std::size_t b = a + 1; b < mixes.size(); ++b) {
                total += cosine(mixes[a], mixes[b]);
                ++pairs;
            }
        }
        return total / pairs;
    };
    EXPECT_GT(spread_for(0.7), spread_for(0.0) + 0.01);
}

TEST(Substrate, PhaseBiasVariesBranchBehaviourAcrossWindows)
{
    // A single self-loop with p = 0.7: without phases the per-window
    // taken fraction only carries binomial noise; the phase bias
    // (p -> p^gamma) makes it swing window to window.
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

    // The loop body (IntAdd) executes once per taken branch, the
    // exit path (SystemOp) once per not-taken one, so the per-window
    // IntAdd fraction tracks the effective taken probability.
    auto loop_spread = [&](bool phases) {
        features::FeatureSession session({10000});
        Executor(prog, 5, phases).run(300000, session);
        RunningStats stats;
        for (const auto &w : session.windows(10000)) {
            stats.add(static_cast<double>(
                          w.opcodeCounts[static_cast<std::size_t>(
                              OpClass::IntAdd)]) /
                      static_cast<double>(w.instCount));
        }
        return stats.stddev();
    };
    EXPECT_GT(loop_spread(true), loop_spread(false) * 2.0);
}

TEST(Substrate, HardProgramsSitNearTheGlobalMean)
{
    // hardFrac = 1: every program heavily blended -> dynamic mixes of
    // malware and benign programs are much more alike.
    auto class_gap = [](double hard_frac) {
        GeneratorConfig cfg = config(0.7, hard_frac);
        cfg.benignCount = 10;
        cfg.malwareCount = 10;
        const auto corpus = ProgramGenerator(cfg).generateCorpus();
        std::vector<double> mal(kNumOpClasses, 0.0);
        std::vector<double> ben(kNumOpClasses, 0.0);
        for (const Program &prog : corpus) {
            const auto mix = dynamicMix(prog, 30000);
            axpy(prog.malware ? mal : ben, 0.1, mix);
        }
        // Only the body-mix dimensions: CFG structure (branch/call
        // rates) is not what the blend controls.
        std::vector<double> diff(kNumOpClasses, 0.0);
        for (std::size_t i = 0; i < kNumOpClasses; ++i) {
            if (!isControlFlow(opFromIndex(i)))
                diff[i] = mal[i] - ben[i];
        }
        return norm(diff);
    };
    EXPECT_GT(class_gap(0.0), class_gap(1.0) * 1.3);
}

TEST(Substrate, FunctionsHaveDistinctMixes)
{
    // functionMixSpread gives each function its own jittered mix; a
    // program's functions should therefore differ in composition.
    const ProgramGenerator gen(config(0.9));
    const Program prog =
        gen.generate(benignProfiles()[2], 2, 4242);
    ASSERT_GE(prog.functions.size(), 2u);

    auto static_mix = [](const Function &fn) {
        std::vector<double> mix(kNumOpClasses, 0.0);
        double total = 0.0;
        for (const auto &block : fn.blocks) {
            for (const auto &inst : block.body) {
                mix[static_cast<std::size_t>(inst.op)] += 1.0;
                total += 1.0;
            }
        }
        for (double &v : mix)
            v /= std::max(total, 1.0);
        return mix;
    };
    const auto a = static_mix(prog.functions[0]);
    const auto b = static_mix(prog.functions[1]);
    // Similar overall (same program) but not identical.
    EXPECT_GT(cosine(a, b), 0.5);
    EXPECT_LT(cosine(a, b), 0.999);
}

TEST(Substrate, UnalignedRateTracksProfile)
{
    // packed_dropper declares 12% intentional misalignment; browser
    // 5%. The executed unaligned-access rates must order the same.
    const ProgramGenerator gen(config(0.7));
    auto unaligned_rate = [&](const FamilyProfile &profile,
                              std::uint32_t family) {
        const Program prog = gen.generate(profile, family, 31337);
        features::FeatureSession session({10000});
        Executor(prog, 3).run(100000, session);
        std::uint64_t unaligned = 0;
        std::uint64_t mem = 0;
        for (const auto &w : session.windows(10000)) {
            unaligned += w.events[static_cast<std::size_t>(
                uarch::Event::Unaligned)];
            mem += w.events[static_cast<std::size_t>(
                       uarch::Event::Loads)] +
                   w.events[static_cast<std::size_t>(
                       uarch::Event::Stores)];
        }
        return static_cast<double>(unaligned) /
               static_cast<double>(mem);
    };
    const double dropper = unaligned_rate(malwareProfiles()[4], 10);
    const double compute = unaligned_rate(benignProfiles()[2], 2);
    EXPECT_GT(dropper, compute * 2.0);
}

TEST(Substrate, PhaseJumpKeepsBudgetAndValidity)
{
    // Phase jumps re-dispatch control; execution must still emit the
    // exact budget with valid pcs.
    const ProgramGenerator gen(config(0.7));
    const Program prog =
        gen.generate(malwareProfiles()[0], 6, 90210);
    class PcSink
    {
      public:
        void
        consume(const DynInst &inst)
        {
            ++count;
            min_pc = std::min(min_pc, inst.pc);
            max_pc = std::max(max_pc, inst.pc);
        }
        std::uint64_t count = 0;
        std::uint64_t min_pc = ~0ULL;
        std::uint64_t max_pc = 0;
    };
    PcSink sink;
    Executor(prog, 11).run(123456, sink);
    EXPECT_EQ(sink.count, 123456u);
    EXPECT_GE(sink.min_pc, 0x400000u);
    EXPECT_LE(sink.max_pc, 0x400000u + prog.textBytes() + 4096);
}

} // namespace

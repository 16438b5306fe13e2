/**
 * @file
 * Program generator implementation.
 */

#include "trace/generator.hh"

#include <algorithm>
#include <cmath>

#include "support/logging.hh"
#include "support/stats.hh"

namespace rhmd::trace
{

ProgramGenerator::ProgramGenerator(GeneratorConfig config)
    : config_(config)
{
    fatal_if(config_.commonBlend < 0.0 || config_.commonBlend > 1.0,
             "commonBlend must be in [0, 1]");
    // Global mean mix over all families, used for the overlap blend.
    commonMix_.assign(kNumOpClasses, 0.0);
    const auto &profiles = allProfiles();
    for (const FamilyProfile &profile : profiles) {
        panic_if(profile.bodyMix.size() != kNumOpClasses,
                 "profile '", profile.name, "' has a bad mix size");
        std::vector<double> normalized = profile.bodyMix;
        normalizeInPlace(normalized);
        axpy(commonMix_, 1.0 / static_cast<double>(profiles.size()),
             normalized);
    }
}

StaticInst
ProgramGenerator::makeInst(const FamilyProfile &profile, Rng &rng,
                           OpClass op, std::size_t n_regions) const
{
    StaticInst inst;
    inst.op = op;

    if (accessesMemory(inst.op)) {
        MemRef &mem = inst.mem;
        if (inst.op == OpClass::Push || inst.op == OpClass::Pop ||
            rng.chance(0.15)) {
            // Stack traffic: spills, locals, push/pop.
            mem.pattern = AddrPattern::StackSlot;
            mem.stride = static_cast<std::int32_t>(rng.below(32)) * 8;
            mem.accessSize = 8;
        } else {
            // Heap/data traffic. Hot-region bias: lower-index
            // regions are geometrically more likely.
            std::vector<double> weights(n_regions > 1 ? n_regions - 1
                                                      : 1);
            double w = 1.0;
            for (double &entry : weights) {
                entry = w;
                w /= profile.hotRegionBias;
            }
            // Region 0 is the stack; data regions start at 1.
            mem.region = static_cast<std::uint8_t>(
                n_regions > 1 ? 1 + rng.weightedIndex(weights) : 0);
            if (rng.chance(profile.strideFrac)) {
                mem.pattern = AddrPattern::Stride;
                const auto &choices = profile.strideChoices;
                mem.stride = choices[rng.below(choices.size())];
            } else {
                mem.pattern = AddrPattern::RandomInRegion;
                mem.span = static_cast<std::uint32_t>(
                    1ULL << rng.range(profile.spanLog2Min,
                                      profile.spanLog2Max));
            }
            const std::uint32_t sizes[] = {1, 2, 4, 8, 8, 8, 16};
            mem.accessSize = static_cast<std::uint8_t>(
                sizes[rng.below(std::size(sizes))]);
            mem.alignOffset = rng.chance(profile.unalignedProb)
                ? static_cast<std::uint8_t>(1 + rng.below(3)) : 0;
        }
    }
    return inst;
}

void
assignRegisters(Program &program, std::uint64_t seed)
{
    Rng rng(seed);
    const auto gp = [&rng] {
        return static_cast<RegId>(rng.below(kNumGpRegs));
    };
    for (Function &fn : program.functions) {
        for (BasicBlock &block : fn.blocks) {
            // Rolling window of recent definitions: sources prefer
            // them, so liveness and def-use chains resemble the
            // short-range dependences of compiled straight-line code.
            std::vector<RegId> recent;
            const auto src = [&] {
                if (!recent.empty() && rng.chance(0.6))
                    return recent[recent.size() - 1 -
                                  rng.below(recent.size())];
                return gp();
            };
            for (StaticInst &inst : block.body) {
                const OpInfo &info = opInfo(inst.op);
                if (info.numSrc >= 1)
                    inst.src1 = src();
                if (info.numSrc >= 2)
                    inst.src2 = src();
                if (info.hasDst) {
                    inst.dst = gp();
                    recent.push_back(inst.dst);
                    if (recent.size() > 4)
                        recent.erase(recent.begin());
                }
            }
            if (block.term.kind == TermKind::CondBranch) {
                block.term.condSrc1 =
                    !recent.empty() && rng.chance(0.75) ? recent.back()
                                                        : gp();
                block.term.condSrc2 = gp();
            }
        }
    }
}

Function
ProgramGenerator::makeFunction(const FamilyProfile &profile, Rng &rng,
                               std::size_t fn_index, std::size_t fn_count,
                               const std::vector<double> &mix,
                               double mean_block_len,
                               std::size_t n_regions) const
{
    Function fn;
    const std::uint32_t n_blocks = static_cast<std::uint32_t>(
        rng.range(profile.minBlocks, profile.maxBlocks));
    fn.blocks.resize(n_blocks);

    for (std::uint32_t b = 0; b < n_blocks; ++b) {
        BasicBlock &block = fn.blocks[b];

        // Body length: moderate spread around the profile mean.
        const double target = std::max(
            1.0, rng.gaussian(mean_block_len, mean_block_len * 0.30));
        const auto body_len = static_cast<std::size_t>(target);
        block.body.reserve(body_len);

        // Quota (deficit-greedy) + i.i.d. mixture sampling of the
        // body opcodes; see GeneratorConfig::quotaFrac.
        std::vector<double> deficit(mix.size());
        for (std::size_t i = 0; i < mix.size(); ++i)
            deficit[i] = mix[i] * static_cast<double>(body_len);
        for (std::size_t i = 0; i < body_len; ++i) {
            std::size_t pick;
            if (rng.chance(config_.quotaFrac)) {
                pick = 0;
                for (std::size_t j = 1; j < deficit.size(); ++j) {
                    if (deficit[j] > deficit[pick])
                        pick = j;
                }
            } else {
                pick = rng.weightedIndex(mix);
            }
            deficit[pick] -= 1.0;
            block.body.push_back(
                makeInst(profile, rng, opFromIndex(pick), n_regions));
        }

        // Terminator. The last block returns (or exits in main).
        Terminator &term = block.term;
        if (b + 1 == n_blocks) {
            term.kind = fn_index == 0 ? TermKind::Exit : TermKind::Ret;
            continue;
        }
        const double roll = rng.uniform();
        if (roll < profile.condFrac) {
            term.kind = TermKind::CondBranch;
            term.fallTarget = b + 1;
            const bool backward =
                b > 0 && rng.chance(profile.backEdgeFrac);
            if (backward) {
                term.takenTarget =
                    static_cast<std::uint32_t>(rng.below(b));
                term.takenProb = std::clamp(
                    rng.gaussian(profile.loopTakenProb, 0.04), 0.5, 0.80);
            } else {
                term.takenTarget = static_cast<std::uint32_t>(
                    rng.range(b + 1, n_blocks - 1));
                term.takenProb = std::clamp(
                    rng.gaussian(profile.fwdTakenProb, 0.15), 0.02, 0.95);
            }
        } else if (roll < profile.condFrac + profile.jumpFrac) {
            term.kind = TermKind::Jump;
            term.takenTarget = static_cast<std::uint32_t>(
                rng.range(b + 1, n_blocks - 1));
        } else if (roll <
                   profile.condFrac + profile.jumpFrac + profile.callFrac &&
                   fn_count > 1) {
            term.kind = TermKind::Call;
            term.fallTarget = b + 1;
            // Mostly call "later" functions; occasional recursion-ish
            // backward call (bounded by the interpreter's depth cap).
            if (fn_index + 1 < fn_count &&
                !rng.chance(profile.recursionProb)) {
                term.callee = static_cast<std::uint32_t>(
                    rng.range(static_cast<std::int64_t>(fn_index) + 1,
                              static_cast<std::int64_t>(fn_count) - 1));
            } else {
                term.callee = static_cast<std::uint32_t>(
                    rng.below(fn_count));
            }
        } else {
            // Plain fall-through, modelled as an always-not-taken
            // conditional branch (real compilers emit these too).
            term.kind = TermKind::CondBranch;
            term.takenTarget = b;
            term.fallTarget = b + 1;
            term.takenProb = 0.0;
        }
    }
    return fn;
}

Program
ProgramGenerator::generate(const FamilyProfile &profile,
                           std::uint32_t family, std::uint64_t seed) const
{
    Rng rng(seed);
    Program prog;
    prog.name = profile.name + "_" + std::to_string(seed & 0xffff);
    prog.malware = profile.malware;
    prog.family = family;
    prog.seed = seed;

    // Individualize the opcode mix: normalize, jitter, blend toward
    // the global mean to create cross-family overlap. A fraction of
    // programs are "hard" (heavily blended), the rest clearly typed.
    std::vector<double> mix = profile.bodyMix;
    normalizeInPlace(mix);
    mix = rng.perturbedSimplex(mix, profile.mixSpread);
    const double blend = rng.chance(config_.hardFrac)
        ? config_.hardBlend
        : config_.commonBlend;
    for (std::size_t i = 0; i < mix.size(); ++i) {
        mix[i] = (1.0 - blend) * mix[i] + blend * commonMix_[i];
    }

    const double mean_block_len = std::max(
        2.0, profile.meanBlockLen *
                 std::exp(rng.gaussian() * profile.blockLenSpread));

    // Memory regions: region 0 is the stack.
    const std::uint32_t n_data_regions = static_cast<std::uint32_t>(
        rng.range(profile.minRegions, profile.maxRegions));
    prog.regions.push_back({0x7fff00000000ULL, 1ULL << 20});
    std::uint64_t base = 0x10000000ULL;
    for (std::uint32_t r = 0; r < n_data_regions; ++r) {
        const double log_lo =
            std::log2(static_cast<double>(profile.minRegionBytes));
        const double log_hi =
            std::log2(static_cast<double>(profile.maxRegionBytes));
        const auto size = static_cast<std::uint64_t>(
            std::exp2(rng.uniform(log_lo, log_hi)));
        prog.regions.push_back({base, size});
        base += (size + 0xffffULL) & ~0xffffULL;
    }

    const std::size_t fn_count = static_cast<std::size_t>(
        rng.range(profile.minFunctions, profile.maxFunctions));
    prog.functions.reserve(fn_count);
    for (std::size_t f = 0; f < fn_count; ++f) {
        // Each function is its own "task": jitter the program mix so
        // execution phases that favour different functions produce
        // visibly different collection windows.
        const std::vector<double> fn_mix =
            rng.perturbedSimplex(mix, profile.functionMixSpread);
        prog.functions.push_back(
            makeFunction(profile, rng, f, fn_count, fn_mix,
                         mean_block_len, prog.regions.size()));
    }

    // Registers come from a forked stream so the allocation pass can
    // evolve without disturbing the structural draws above (corpus
    // shapes — and every figure derived from them — stay identical).
    assignRegisters(prog, seed ^ 0x5ee0c0de5eedULL);

    prog.layoutCode();
    prog.validate();
    return prog;
}

std::vector<Program>
ProgramGenerator::generateCorpus() const
{
    Rng seeder(config_.seed);
    std::vector<Program> corpus;
    corpus.reserve(config_.benignCount + config_.malwareCount);

    const auto &benign = benignProfiles();
    for (std::size_t i = 0; i < config_.benignCount; ++i) {
        const std::size_t family = i % benign.size();
        corpus.push_back(generate(benign[family],
                                  static_cast<std::uint32_t>(family),
                                  seeder.next()));
    }
    const auto &malware = malwareProfiles();
    for (std::size_t i = 0; i < config_.malwareCount; ++i) {
        const std::size_t family = i % malware.size();
        corpus.push_back(generate(
            malware[family],
            static_cast<std::uint32_t>(benign.size() + family),
            seeder.next()));
    }
    return corpus;
}

} // namespace rhmd::trace

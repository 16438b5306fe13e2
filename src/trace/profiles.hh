/**
 * @file
 * Behaviour-family profiles for the synthetic program generator.
 *
 * The paper's corpus is 554 benign Windows programs (browsers,
 * editors, SPEC 2006, system tools, ...) and 3000 MalwareDB samples.
 * We substitute parameterized behaviour families whose dynamic
 * feature distributions overlap the way real corpora do: clear
 * aggregate differences (so detectors reach the paper's ~0.85-0.95
 * AUC) but no trivially separating dimension. Each generated program
 * individually perturbs its family profile, so programs within a
 * family differ as real applications do.
 */

#ifndef RHMD_TRACE_PROFILES_HH
#define RHMD_TRACE_PROFILES_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/isa.hh"

namespace rhmd::trace
{

/** Parameter set describing one behaviour family. */
struct FamilyProfile
{
    std::string name;
    bool malware = false;

    /**
     * Unnormalized opcode weights for block bodies (size
     * kNumOpClasses; control-flow entries must be zero — those
     * frequencies emerge from CFG shape).
     */
    std::vector<double> bodyMix;
    /** Per-program log-normal jitter applied to bodyMix. */
    double mixSpread = 0.35;

    /**
     * Per-function jitter applied on top of the program mix. Real
     * programs are mixtures of tasks (parsing, rendering, I/O, ...)
     * whose hot code differs; this is what makes collection windows
     * of one program vary over time as execution moves between
     * functions.
     */
    double functionMixSpread = 0.35;

    /** Mean body instructions per block, and per-program jitter. */
    double meanBlockLen = 8.0;
    double blockLenSpread = 0.25;

    /// @name CFG shape
    /// @{
    double condFrac = 0.55;    ///< blocks ending in a cond branch
    double jumpFrac = 0.15;    ///< blocks ending in a jump
    double callFrac = 0.20;    ///< blocks ending in a call
    double backEdgeFrac = 0.45;///< cond branches that loop backwards
    double loopTakenProb = 0.80; ///< P(taken) on back edges
    double fwdTakenProb = 0.40;  ///< P(taken) on forward branches
    std::uint32_t minFunctions = 6;
    std::uint32_t maxFunctions = 14;
    std::uint32_t minBlocks = 6;   ///< per function
    std::uint32_t maxBlocks = 20;  ///< per function
    double recursionProb = 0.02;   ///< calls allowed to go backwards
    /// @}

    /// @name Data-memory behaviour
    /// @{
    double strideFrac = 0.6;       ///< strided (vs random) references
    std::vector<std::int32_t> strideChoices{8, 16, 64};
    /** Random-access window size: 2^[min,max] bytes. */
    std::uint32_t spanLog2Min = 11;
    std::uint32_t spanLog2Max = 17;
    double unalignedProb = 0.04;
    std::uint32_t minRegions = 2;
    std::uint32_t maxRegions = 5;
    std::uint64_t minRegionBytes = 1ULL << 14;
    std::uint64_t maxRegionBytes = 1ULL << 22;
    double hotRegionBias = 1.6;    ///< geometric skew of region choice
    /// @}
};

/**
 * A weight override applied on top of the common baseline mix:
 * mixSet() replaces the baseline weight of @p op with @p weight.
 */
struct MixOverride
{
    OpClass op;
    double weight;
};

/** The shared baseline opcode mix typical integer code exhibits. */
std::vector<double> baselineBodyMix();

/**
 * Baseline with the given opcodes' weights *replaced* by absolute
 * values (same unit as baselineBodyMix weights, which sum to ~96).
 */
std::vector<double> mixSet(const std::vector<MixOverride> &overrides);

/** The six built-in benign behaviour families. */
const std::vector<FamilyProfile> &benignProfiles();

/** The six built-in malware behaviour families. */
const std::vector<FamilyProfile> &malwareProfiles();

/** Benign followed by malware profiles (family index space). */
const std::vector<FamilyProfile> &allProfiles();

} // namespace rhmd::trace

#endif // RHMD_TRACE_PROFILES_HH

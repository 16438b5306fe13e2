/**
 * @file
 * Feature corpus: per-program, per-period window features for a
 * whole program population, plus the paper's 60/20/20
 * victim-train / attacker-train / attacker-test split.
 */

#ifndef RHMD_FEATURES_CORPUS_HH
#define RHMD_FEATURES_CORPUS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "features/window.hh"
#include "trace/program.hh"

namespace rhmd::features
{

/** All extracted windows of one program. */
struct ProgramFeatures
{
    std::string name;
    bool malware = false;
    std::uint32_t family = 0;

    /** period (instructions) -> completed windows */
    std::map<std::uint32_t, std::vector<RawWindow>> byPeriod;

    const std::vector<RawWindow> &windows(std::uint32_t period) const;
};

/** Extraction parameters. */
struct ExtractConfig
{
    std::vector<std::uint32_t> periods{10000};
    std::uint64_t traceInsts = 120000;  ///< committed per program
    /** Mixed into each program's seed for the execution-level RNG. */
    std::uint64_t execSalt = 0x5eedULL;
    /**
     * When true, the trailing partial window of each period is
     * flushed (flagged truncated) instead of discarded, so programs
     * shorter than a period — or not a multiple of it — keep their
     * tail data. Off by default to match the paper's steady-state
     * methodology.
     */
    bool emitPartialWindows = false;
};

/** Feature windows for an entire corpus. */
struct FeatureCorpus
{
    std::vector<ProgramFeatures> programs;
    std::vector<std::uint32_t> periods;

    std::size_t malwareCount() const;
};

/** Execute one program and extract its windows. */
ProgramFeatures extractProgram(const trace::Program &program,
                               const ExtractConfig &config);

/** Execute and extract every program of a corpus. */
FeatureCorpus extractCorpus(const std::vector<trace::Program> &programs,
                            const ExtractConfig &config);

/**
 * The paper's data split: 60% victim training, 20% attacker
 * training, 20% attacker testing — stratified so "each set includes
 * a randomly selected subset of malware samples from each type of
 * malware" (we stratify by family for both classes).
 */
struct SplitIndices
{
    std::vector<std::size_t> victimTrain;
    std::vector<std::size_t> attackerTrain;
    std::vector<std::size_t> attackerTest;
};

/** Build the stratified 60/20/20 split. */
SplitIndices stratifiedSplit(const FeatureCorpus &corpus,
                             std::uint64_t seed);

} // namespace rhmd::features

#endif // RHMD_FEATURES_CORPUS_HH

/**
 * @file
 * Synthetic program generator: instantiates Programs from behaviour
 * family profiles.
 */

#ifndef RHMD_TRACE_GENERATOR_HH
#define RHMD_TRACE_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "support/rng.hh"
#include "trace/profiles.hh"
#include "trace/program.hh"

namespace rhmd::trace
{

/** Corpus-level generation parameters. */
struct GeneratorConfig
{
    std::uint64_t seed = 1;
    std::size_t benignCount = 60;
    std::size_t malwareCount = 120;

    /**
     * Blend factor pulling a program's opcode mix towards the global
     * mean mix. 0 keeps family mixes pure (easy separation); values
     * near 1 make all programs identical.
     *
     * Hardness is bimodal, as in real corpora: most programs are
     * clearly of their class (commonBlend), while a fraction
     * (hardFrac) mimic the population mean (hardBlend) — evasive-ish
     * packers among malware, busy system-ish apps among benign.
     * The defaults place detector AUC in the paper's 0.85-0.95 band
     * with the bulk of each class far from the decision boundary.
     */
    double commonBlend = 0.05;
    double hardBlend = 0.55;
    double hardFrac = 0.22;

    /**
     * Fraction of each block body filled by quota (deficit-greedy)
     * sampling instead of i.i.d. draws. Quota sampling keeps every
     * block — hot loops included — representative of the program's
     * opcode mix, so a program's *dynamic* instruction mix tracks
     * its family profile the way real applications' hot code
     * reflects their overall character. 0 = pure i.i.d. (noisy),
     * 1 = fully deterministic block composition.
     */
    double quotaFrac = 0.70;
};

/**
 * Assign register operands to every instruction and terminator of a
 * program, honouring the ABI in trace/isa.hh: bodies allocate from
 * r0..r11 (never the injector-reserved scratch registers), sources
 * are biased towards recently defined registers so def-use chains
 * look like compiled code, and compare-and-branch terminators read
 * two allocatable registers.
 *
 * This runs as a post-pass over an already-built CFG — deliberately
 * fed by its own Rng stream — so register allocation perturbs neither
 * program structure nor any dynamic statistic.
 */
void assignRegisters(Program &program, std::uint64_t seed);

/**
 * Generates programs deterministically: program i of a given corpus
 * config always has the same structure.
 */
class ProgramGenerator
{
  public:
    explicit ProgramGenerator(GeneratorConfig config);

    /**
     * Generate one program from an explicit profile. @p family is
     * recorded in the program for bookkeeping; @p seed fully
     * determines the result.
     */
    Program generate(const FamilyProfile &profile, std::uint32_t family,
                     std::uint64_t seed) const;

    /**
     * Generate the full corpus: benignCount benign then malwareCount
     * malware programs, families round-robin so every family is
     * represented proportionally (matching the paper's stratified
     * splits).
     */
    std::vector<Program> generateCorpus() const;

    const GeneratorConfig &config() const { return config_; }

  private:
    /** Build one function's CFG. */
    Function makeFunction(const FamilyProfile &profile, Rng &rng,
                          std::size_t fn_index, std::size_t fn_count,
                          const std::vector<double> &mix,
                          double mean_block_len,
                          std::size_t n_regions) const;

    /** Assign memory behaviour to a freshly chosen opcode. */
    StaticInst makeInst(const FamilyProfile &profile, Rng &rng,
                        OpClass op, std::size_t n_regions) const;

    GeneratorConfig config_;
    std::vector<double> commonMix_;
};

} // namespace rhmd::trace

#endif // RHMD_TRACE_GENERATOR_HH

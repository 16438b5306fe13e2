/**
 * @file
 * Feature specifications: which family a detector uses, at which
 * collection period, and (for the Instructions family) which opcode
 * classes were selected — plus the conversion from raw windows to
 * numeric feature vectors.
 */

#ifndef RHMD_FEATURES_SPEC_HH
#define RHMD_FEATURES_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "features/window.hh"

namespace rhmd::features
{

/** The paper's three feature families. */
enum class FeatureKind : std::uint8_t
{
    Instructions,  ///< top-K delta opcode frequencies
    Memory,        ///< address-delta histogram
    Architectural, ///< performance-counter event rates
};

/** Display name of a feature family. */
const char *featureKindName(FeatureKind kind);

/**
 * A complete feature specification. Detectors own one; attackers
 * hypothesize them during reverse-engineering.
 */
struct FeatureSpec
{
    FeatureKind kind = FeatureKind::Instructions;
    std::uint32_t period = 10000;  ///< collection window, instructions

    /**
     * Instructions family: indices of the selected opcode classes
     * (the paper tracks "the instructions that show the most
     * different frequency between normal programs and malware in
     * the training set").
     */
    std::vector<std::size_t> opcodeSel;

    /** Dimensionality of vectors this spec produces. */
    std::size_t dim() const;

    /**
     * Write this spec's dim() feature values for @p window into
     * @p out: each count normalized by the window's instruction count.
     */
    void appendTo(const RawWindow &window, double *out) const;

    /** Human-readable description, e.g. "instructions@10k". */
    std::string describe() const;

    /**
     * Combined (union) spec used by the paper's "combined"
     * reverse-engineering attacker: concatenates the vectors of
     * several specs. Implemented as a free function below since the
     * result is not itself a FeatureSpec.
     */
};

/**
 * Rank opcode classes by |mean frequency in malware - mean frequency
 * in benign| over the given training windows and return the top @p k
 * indices (descending delta). This is the paper's Instructions
 * feature-selection step.
 *
 * @param windows  training windows
 * @param labels   per-window ground truth (true = malware)
 * @param k        number of opcode classes to keep
 */
std::vector<std::size_t> selectTopDeltaOpcodes(
    const std::vector<const RawWindow *> &windows,
    const std::vector<bool> &labels, std::size_t k);

/**
 * Write the combined (concatenated) vector of @p specs for one
 * window into @p out (combinedDim(specs) doubles), without
 * allocating: the one row fill for training and scoring.
 */
void fillCombined(const std::vector<FeatureSpec> &specs,
                  const RawWindow &window, double *out);

/** Total dimensionality of a combined spec list. */
std::size_t combinedDim(const std::vector<FeatureSpec> &specs);

} // namespace rhmd::features

#endif // RHMD_FEATURES_SPEC_HH

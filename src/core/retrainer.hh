/**
 * @file
 * Retraining studies (paper Sec. 6): mixing evasive malware into the
 * training set (Fig. 11) and the iterated evade-retrain game
 * (Fig. 13).
 */

#ifndef RHMD_CORE_RETRAINER_HH
#define RHMD_CORE_RETRAINER_HH

#include <memory>
#include <string>
#include <vector>

#include "core/experiment.hh"
#include "core/reverse_engineer.hh"
#include "core/rhmd.hh"

namespace rhmd::core
{

/** One row of the Fig. 11 sweep. */
struct RetrainPoint
{
    double evasiveFrac;       ///< evasive share of training malware
    double sensEvasive;       ///< sensitivity on evasive malware
    double sensUnmodified;    ///< sensitivity on unmodified malware
    double specificity;       ///< on regular programs
};

/** Parameters of the retraining sweep. */
struct RetrainConfig
{
    std::string algorithm = "LR";
    features::FeatureKind kind = features::FeatureKind::Instructions;
    std::uint32_t period = 10000;
    /**
     * Weighted injection is the paper's strategy of choice in the
     * retraining context ("it makes it more difficult to detect the
     * evasion if the detector is retrained") and is also robust to
     * proxy noise, since it spreads over every negative-weight
     * opcode instead of betting on one.
     */
    EvasionPlan evasion{EvasionStrategy::Weighted,
                        trace::InjectLevel::Block, 3, 99};
    /** Evasive shares of the malware training set to sweep. */
    std::vector<double> fractions{0.0,  0.05, 0.07, 0.10, 0.14,
                                  0.17, 0.20, 0.22, 0.25};
    std::uint64_t seed = 31;
};

/**
 * The Fig. 11 experiment. The victim is trained, reverse-engineered
 * (NN proxy at the true feature/period), and evasive variants of the
 * malware are generated against the proxy. For each requested
 * fraction, that share of the malware training programs is swapped
 * for its evasive variant, the detector is retrained from scratch,
 * and the three test-set rates are measured at program granularity.
 */
std::vector<RetrainPoint> retrainSweep(const Experiment &exp,
                                       const RetrainConfig &config);

/** One generation of the Fig. 13 game. */
struct GenerationPoint
{
    int generation;            ///< 1-based
    double specificity;        ///< regular programs
    double sensUnmodified;     ///< unmodified malware
    double sensCurrentGen;     ///< malware evading THIS detector
    double sensPreviousGen;    ///< previous generation's evasive malware
    double trainAccuracy;      ///< detector fit quality (diagnostic)
};

/** Parameters of the generations game. */
struct GameConfig
{
    std::string algorithm = "NN";
    features::FeatureKind kind = features::FeatureKind::Instructions;
    std::uint32_t period = 10000;
    std::size_t generations = 7;
    EvasionPlan evasion{EvasionStrategy::Weighted,
                        trace::InjectLevel::Block, 3, 123};
    std::uint64_t seed = 47;
};

/**
 * The Fig. 13 evade-retrain game: generation g's detector is trained
 * on the original data plus every earlier generation's evasive
 * malware, then reverse-engineered and evaded to create generation
 * g's evasive malware.
 */
std::vector<GenerationPoint> evadeRetrainGame(const Experiment &exp,
                                              const GameConfig &config);

/**
 * Shape of the candidate pool the online retraining loop rebuilds:
 * one base detector per spec, a uniform switching policy, seeds
 * derived per detector from (seed, generation) with SplitRng so
 * successive candidates train on independent streams and the result
 * is bit-identical at any thread count.
 */
struct PoolRetrainConfig
{
    std::string algorithm = "LR";
    std::vector<features::FeatureSpec> specs;
    std::size_t opcodeTopK = 16;
    std::uint64_t seed = 0x5eed2e7a;

    /** Retrain round; mixed into each detector's training seed. */
    std::uint64_t generation = 0;
};

/**
 * Corpus-fed retraining entry point for the online pipeline
 * (DESIGN.md §16): train a fresh candidate pool on @p base's
 * @p train_idx programs plus @p flagged — suspect programs captured
 * from live traffic (labeled malware; typically replayed from a
 * flight-recorder corpus file). Training parallelizes across
 * detectors on the deterministic thread pool; @p flagged may be
 * empty (rebuild on ground truth alone). Returns InvalidArgument,
 * before any training, for an empty spec list, an out-of-range train
 * index or a spec period that does not divide the longest one;
 * otherwise any pool-invariant error from tryMakeRhmd.
 */
support::StatusOr<std::unique_ptr<Rhmd>>
retrainPool(const features::FeatureCorpus &base,
            const std::vector<std::size_t> &train_idx,
            const std::vector<features::ProgramFeatures> &flagged,
            const PoolRetrainConfig &config);

} // namespace rhmd::core

#endif // RHMD_CORE_RETRAINER_HH

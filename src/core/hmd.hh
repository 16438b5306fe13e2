/**
 * @file
 * The hardware malware detector (HMD): a feature specification, a
 * trained classifier over standardized window features, and an
 * operating threshold. This is the paper's baseline detector
 * (Demme et al. / Ozsoy et al. style supervised HMD).
 */

#ifndef RHMD_CORE_HMD_HH
#define RHMD_CORE_HMD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "features/corpus.hh"
#include "features/matrix.hh"
#include "features/spec.hh"
#include "ml/classifier.hh"

namespace rhmd::core
{

/** Detector configuration. */
struct HmdConfig
{
    /** Classifier algorithm: "LR", "NN", "DT", or "SVM". */
    std::string algorithm = "LR";

    /**
     * Feature specs, all at the same collection period. A single
     * spec is the normal detector; several model the paper's
     * "combined" (union-of-features) reverse-engineering attacker.
     */
    std::vector<features::FeatureSpec> specs;

    /** Top-K opcode classes for Instructions specs. */
    std::size_t opcodeTopK = 16;

    /**
     * Random-subspace selection (Sec. 8.3's "large set of candidate
     * features"): when > opcodeTopK, the Instructions selection
     * draws opcodeTopK classes at random from the top-opcodePoolK
     * delta ranking instead of taking the top-K outright, so
     * detectors trained with different seeds watch different opcode
     * subsets. 0 disables (plain top-K).
     */
    std::size_t opcodePoolK = 0;

    /** Training determinism seed. */
    std::uint64_t seed = 1;
};

/** Abstract query interface shared by Hmd and Rhmd. */
class Detector
{
  public:
    virtual ~Detector() = default;

    /**
     * Instruction count between successive decisions of this
     * detector (its collection period; for RHMD the epoch length).
     */
    virtual std::uint32_t decisionPeriod() const = 0;

    /**
     * The decision sequence over one program's trace: one 0/1
     * decision per decisionPeriod() instructions. Non-const because
     * randomized detectors consume switching randomness.
     */
    virtual std::vector<int>
    decide(const features::ProgramFeatures &prog) = 0;

    /**
     * Program-level decision: majorityVote() over the window
     * decisions, the paper's "averaging the decisions across
     * multiple intervals".
     */
    int programDecision(const features::ProgramFeatures &prog);
};

/**
 * A single deterministic HMD.
 */
class Hmd : public Detector
{
  public:
    explicit Hmd(HmdConfig config);

    /**
     * Train from raw windows and their labels. Performs Instructions
     * opcode selection (if not already fixed in the spec), fits the
     * standardizer, trains the classifier, and picks the
     * accuracy-optimal threshold on the training scores.
     */
    void train(const std::vector<const features::RawWindow *> &windows,
               const std::vector<int> &labels);

    /**
     * Convenience: train on the ground-truth-labeled windows of the
     * given corpus programs (every window inherits its program's
     * label).
     */
    void trainOnPrograms(const features::FeatureCorpus &corpus,
                         const std::vector<std::size_t> &program_idx);

    /** Classifier score of one raw window: a one-window scoreWindows(). */
    double windowScore(const features::RawWindow &window) const;

    /** Thresholded decision for one raw window. */
    int windowDecision(const features::RawWindow &window) const;

    /**
     * Standardized feature matrix of a batch of windows, one row per
     * window, built without per-row allocation. Row values are
     * bit-identical to featureVector().
     */
    features::FeatureMatrix featureMatrix(
        const std::vector<const features::RawWindow *> &windows) const;

    /**
     * Classifier scores of a batch of windows in one pass
     * (featureMatrix + Classifier::scoreBatch): the detector's one
     * scoring entry. A window scores the same in any batch, so
     * windowScore() is this call on a batch of one.
     */
    std::vector<double> scoreWindows(
        const std::vector<const features::RawWindow *> &windows) const;

    /** Fill @p row (featureDim() doubles) for one window, no alloc. */
    void fillFeatureRow(const features::RawWindow &window,
                        double *row) const;

    /** Dimensionality of this detector's combined feature vector. */
    std::size_t featureDim() const;

    std::uint32_t decisionPeriod() const override;
    std::vector<int>
    decide(const features::ProgramFeatures &prog) override;

    /** Mean window score over a program (for ROC evaluation). */
    double programScore(const features::ProgramFeatures &prog) const;

    /**
     * Marginal effect of each *raw* feature on the decision score:
     * the classifier weights mapped back through the standardizer
     * (LR/SVM weights, or the paper's Fig. 7 collapse for NN).
     * Fatal for DT, which has no weight vector.
     */
    std::vector<double> effectiveRawWeights() const;

    /**
     * Injection candidates: (opcode, |weight|) for every selected
     * Instructions opcode whose effective weight is negative
     * (pushing the score towards "benign"). Requires an
     * Instructions spec.
     */
    std::vector<std::pair<trace::OpClass, double>>
    negativeWeightOpcodes() const;

    const HmdConfig &config() const { return config_; }
    const std::vector<features::FeatureSpec> &specs() const
    {
        return config_.specs;
    }
    const ml::Classifier &classifier() const { return *clf_; }
    const ml::Standardizer &standardizer() const { return standardizer_; }
    double threshold() const { return threshold_; }
    bool trained() const { return clf_ != nullptr; }

    /** Feature vector of one window under this detector's specs. */
    std::vector<double>
    featureVector(const features::RawWindow &window) const;

    /** "alg/feature@period" label for tables. */
    std::string describe() const;

  private:
    HmdConfig config_;
    std::unique_ptr<ml::Classifier> clf_;
    ml::Standardizer standardizer_;
    double threshold_ = 0.5;
};

/** Pointers to every window of one stream, in order (scoreWindows input). */
std::vector<const features::RawWindow *>
windowPointers(const std::vector<features::RawWindow> &windows);

/**
 * Collect (window pointer, label) pairs for the given programs of a
 * corpus at one period, labels inherited from program ground truth.
 */
void collectWindows(const features::FeatureCorpus &corpus,
                    const std::vector<std::size_t> &program_idx,
                    std::uint32_t period,
                    std::vector<const features::RawWindow *> &windows,
                    std::vector<int> &labels);

} // namespace rhmd::core

#endif // RHMD_CORE_HMD_HH

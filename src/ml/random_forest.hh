/**
 * @file
 * Random forest — the "single high-complexity, high-accuracy
 * classifier" the paper's Sec. 8 discussion contrasts with pools of
 * low-complexity randomized detectors. Included so that contrast can
 * be measured, and as a stronger attacker-side algorithm.
 */

#ifndef RHMD_ML_RANDOM_FOREST_HH
#define RHMD_ML_RANDOM_FOREST_HH

#include "ml/classifier.hh"
#include "ml/decision_tree.hh"

namespace rhmd::ml
{

/** Forest hyperparameters. */
struct ForestConfig
{
    std::size_t trees = 30;
    /** Bootstrap sample fraction per tree. */
    double sampleFrac = 0.8;
    /**
     * Features considered per tree: each tree sees a random subset
     * of ceil(sqrt(d)) * featureFactor features.
     */
    double featureFactor = 2.0;
    TreeConfig tree{};
};

/**
 * Bagged CART ensemble with per-tree feature subsampling; score() is
 * the mean of the trees' leaf scores.
 */
class RandomForest : public Classifier
{
  public:
    explicit RandomForest(ForestConfig config = {});

    void train(const Dataset &data, Rng &rng) override;
    std::vector<double>
    scoreBatch(const features::FeatureMatrix &x) const override;
    std::string name() const override { return "RF"; }

    /** Number of trained trees. */
    std::size_t treeCount() const { return trees_.size(); }

    /**
     * The trained trees (for static analyses over the forest). Their
     * splits index full-width feature rows: training rewrote each
     * tree's features through the subset the tree was grown on.
     */
    const std::vector<DecisionTree> &trees() const { return trees_; }

  private:
    ForestConfig config_;
    std::vector<DecisionTree> trees_;
};

} // namespace rhmd::ml

#endif // RHMD_ML_RANDOM_FOREST_HH

/**
 * @file
 * CART decision tree — one of the attacker-side algorithms the paper
 * uses to reverse-engineer victims (Figs. 3 and 4).
 */

#ifndef RHMD_ML_DECISION_TREE_HH
#define RHMD_ML_DECISION_TREE_HH

#include "ml/classifier.hh"
#include "ml/flat_tree.hh"

namespace rhmd::ml
{

/** Tree growth limits. */
struct TreeConfig
{
    std::size_t maxDepth = 8;
    std::size_t minSamplesLeaf = 8;
    std::size_t minSamplesSplit = 16;
};

/**
 * Binary CART trained by greedy Gini-impurity splitting on axis-
 * aligned thresholds; score() returns the leaf's positive fraction.
 */
class DecisionTree : public Classifier
{
  public:
    /**
     * One tree node. Exposed read-only so static analyses (the
     * certify pass's threshold-distance traversal) can walk the
     * grown tree without re-deriving it from probe queries.
     */
    struct Node
    {
        bool leaf = true;
        double value = 0.5;       ///< leaf positive fraction
        std::size_t feature = 0;
        double threshold = 0.0;   ///< go left when x[f] <= threshold
        std::int32_t left = -1;
        std::int32_t right = -1;
    };

    explicit DecisionTree(TreeConfig config = {});

    void train(const Dataset &data, Rng &rng) override;
    std::vector<double>
    scoreBatch(const features::FeatureMatrix &x) const override;
    std::unique_ptr<Classifier> clone() const override;
    std::string name() const override { return "DT"; }

    /** Number of nodes in the grown tree. */
    std::size_t nodeCount() const { return nodes_.size(); }

    /** Depth of the grown tree. */
    std::size_t depth() const;

    /** The grown node array (root at index 0; empty before train). */
    const std::vector<Node> &nodes() const { return nodes_; }

    /** The grown tree in flat layout (rebuilt by train()). */
    const FlatTree &flat() const { return flat_; }

  private:
    std::int32_t build(const Dataset &data,
                       std::vector<std::size_t> &indices,
                       std::size_t depth);

    TreeConfig config_;
    std::vector<Node> nodes_;
    FlatTree flat_;
};

/**
 * Flatten a grown node array into the flat layout. @p map, when
 * non-null, rewrites each split's feature index through
 * (*map)[feature] — the random forest uses its per-tree feature
 * selection here so the tree walk reads full-width rows directly
 * instead of copying a projected row per (row, tree) pair.
 * Thresholds, structure, and leaf values are untouched, so the
 * flattened walk reaches exactly the leaves the Node walk reaches.
 */
FlatTree flattenTree(const std::vector<DecisionTree::Node> &nodes,
                     const std::vector<std::size_t> *map);

} // namespace rhmd::ml

#endif // RHMD_ML_DECISION_TREE_HH

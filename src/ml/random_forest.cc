/**
 * @file
 * Random forest implementation.
 */

#include "ml/random_forest.hh"

#include <cmath>
#include <cstdint>
#include <utility>

#include "ml/kernels.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

namespace rhmd::ml
{

namespace
{

/** Bits [first, end) of a leaf mask, for first < end <= 64. */
std::uint64_t
leafRange(std::size_t first, std::size_t end)
{
    const std::uint64_t below_end =
        end == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << end) - 1;
    return below_end & ~((std::uint64_t{1} << first) - 1);
}

/**
 * Append the bitvector form of the subtree at @p node, numbering its
 * leaves left to right from @p first; returns one past its last leaf
 * number.
 */
std::size_t
addSubtreeForm(FlatTree &tree, std::int64_t node, std::size_t first)
{
    const auto n = static_cast<std::size_t>(node);
    if (tree.feature[n] < 0) {
        tree.leafValue.push_back(tree.value[n]);
        return first + 1;
    }
    const std::size_t mid = addSubtreeForm(tree, tree.left[n], first);
    const std::size_t end = addSubtreeForm(tree, tree.right[n], mid);
    tree.splitFeature.push_back(tree.feature[n]);
    tree.splitThreshold.push_back(tree.threshold[n]);
    tree.leftLeaves.push_back(mid <= 64 ? leafRange(first, mid) : 0);
    return end;
}

/** Give @p tree its bitvector form (FlatTree) if it has at most 64 leaves. */
void
addBitvectorForm(FlatTree &tree)
{
    if (addSubtreeForm(tree, 0, 0) <= 64)
        return;
    tree.splitFeature.clear();
    tree.splitThreshold.clear();
    tree.leftLeaves.clear();
    tree.leafValue.clear();
}

} // namespace

RandomForest::RandomForest(ForestConfig config)
    : config_(config)
{
    fatal_if(config_.trees == 0, "a forest needs at least one tree");
    fatal_if(config_.sampleFrac <= 0.0 || config_.sampleFrac > 1.0,
             "sampleFrac must be in (0, 1]");
}

void
RandomForest::train(const Dataset &data, Rng &rng)
{
    fatal_if(data.empty(), "cannot train RF on empty data");
    data.validate();
    trees_.clear();
    featureSel_.clear();
    trees_.reserve(config_.trees);
    featureSel_.reserve(config_.trees);

    const std::size_t d = data.dim();
    const auto features_per_tree = std::min<std::size_t>(
        d, std::max<std::size_t>(
               1, static_cast<std::size_t>(
                      std::ceil(std::sqrt(static_cast<double>(d)) *
                                config_.featureFactor))));
    const auto samples_per_tree = std::max<std::size_t>(
        2, static_cast<std::size_t>(
               config_.sampleFrac * static_cast<double>(data.size())));

    // One draw from the caller's generator roots a SplitRng; each
    // tree then trains from its own (root, tree index) stream, so
    // trees are independent of each other and of the thread that
    // builds them — the forest is identical at any thread count.
    const SplitRng split(rng.next());

    struct TreeResult
    {
        DecisionTree tree;
        std::vector<std::size_t> sel;
    };
    std::vector<TreeResult> grown =
        support::parallelMap<TreeResult>(
            config_.trees, [&](std::size_t t) {
                Rng tree_rng = split.at(t);
                // Feature subset for this tree.
                const std::vector<std::size_t> perm =
                    tree_rng.permutation(d);
                TreeResult result;
                result.sel.assign(perm.begin(),
                                  perm.begin() + features_per_tree);
                // Bootstrap sample projected onto the subset.
                Dataset sample;
                for (std::size_t k = 0; k < samples_per_tree; ++k) {
                    const std::size_t i = tree_rng.below(data.size());
                    std::vector<double> row;
                    row.reserve(result.sel.size());
                    for (std::size_t f : result.sel)
                        row.push_back(data.x[i][f]);
                    sample.add(std::move(row), data.y[i]);
                }
                result.tree = DecisionTree(config_.tree);
                result.tree.train(sample, tree_rng);
                return result;
            });
    for (TreeResult &result : grown) {
        trees_.push_back(std::move(result.tree));
        featureSel_.push_back(std::move(result.sel));
    }

    flat_.clear();
    flat_.reserve(trees_.size());
    for (std::size_t t = 0; t < trees_.size(); ++t) {
        flat_.push_back(flattenTree(trees_[t].nodes(), &featureSel_[t]));
        addBitvectorForm(flat_.back());
    }
}

std::vector<double>
RandomForest::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(trees_.empty(), "RF scored before training");
    // Splits were remapped through featureSel_ when the trees were
    // flattened, so traversal reads full-width rows: the comparisons
    // each tree's own walk over its projected features would make,
    // summed in ascending tree order, then one divide.
    std::vector<double> out = scoreSpan(x);
    kernels().forestScore(flat_.data(), flat_.size(), x, out.data());
    out.resize(x.rows());  // drop padding lanes: they are not windows
    return out;
}

std::unique_ptr<Classifier>
RandomForest::clone() const
{
    return std::make_unique<RandomForest>(*this);
}

} // namespace rhmd::ml

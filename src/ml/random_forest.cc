/**
 * @file
 * Random forest implementation.
 */

#include "ml/random_forest.hh"

#include <cmath>
#include <utility>

#include "ml/kernels.hh"
#include "support/logging.hh"
#include "support/parallel.hh"

namespace rhmd::ml
{

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
    for (std::size_t t = 0; t < trees_.size(); ++t)
        flat_.push_back(flattenTree(trees_[t].nodes(), &featureSel_[t]));
}

std::vector<double>
RandomForest::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(trees_.empty(), "RF scored before training");
    // Splits were remapped through featureSel_ when the trees were
    // flattened, so traversal reads full-width rows: the comparisons
    // each tree's own walk over its projected features would make,
    // summed in ascending tree order, then one divide.
    std::vector<double> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r) {
        double total = 0.0;
        for (const FlatTree &tree : flat_)
            total += treeLeaf(tree, x.row(r));
        out[r] = total / static_cast<double>(flat_.size());
    }
    return out;
}

std::unique_ptr<Classifier>
RandomForest::clone() const
{
    return std::make_unique<RandomForest>(*this);
}

} // namespace rhmd::ml

/**
 * @file
 * Random forest implementation.
 */

#include "ml/random_forest.hh"

#include <cmath>

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

    trees_ = support::parallelMap<DecisionTree>(
        config_.trees, [&](std::size_t t) {
            Rng tree_rng = split.at(t);
            // Feature subset for this tree.
            const std::vector<std::size_t> perm = tree_rng.permutation(d);
            const std::vector<std::size_t> sel(
                perm.begin(), perm.begin() + features_per_tree);
            // Bootstrap sample projected onto the subset, filled in
            // place.
            Dataset sample{
                features::FeatureMatrix(samples_per_tree,
                                        features_per_tree),
                std::vector<int>(samples_per_tree)};
            for (std::size_t k = 0; k < samples_per_tree; ++k) {
                const std::size_t i = tree_rng.below(data.size());
                const double *src = data.x.row(i);
                double *row = sample.x.row(k);
                for (std::size_t c = 0; c < features_per_tree; ++c)
                    row[c] = src[sel[c]];
                sample.y[k] = data.y[i];
            }
            DecisionTree tree(config_.tree);
            tree.train(sample, tree_rng);
            // Splits index the subset; rewrite them once to index
            // full-width rows, so scoring and the certifier walk the
            // grown nodes directly.
            tree.remapFeatures(sel);
            return tree;
        });
}

std::vector<double>
RandomForest::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(trees_.empty(), "RF scored before training");
    // Tree by tree over the batch, so one tree's nodes stay in cache:
    // each row still sums its leaves in ascending tree order, then
    // divides once.
    std::vector<double> out(x.rows(), 0.0);
    for (const DecisionTree &tree : trees_) {
        for (std::size_t r = 0; r < x.rows(); ++r)
            out[r] += treeLeaf(tree.nodes(), x.row(r));
    }
    for (double &score : out)
        score /= static_cast<double>(trees_.size());
    return out;
}

} // namespace rhmd::ml

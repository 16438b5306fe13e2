/**
 * @file
 * CART implementation.
 */

#include "ml/decision_tree.hh"

#include <algorithm>
#include <functional>

#include "ml/kernels.hh"
#include "support/logging.hh"

namespace rhmd::ml
{

DecisionTree::DecisionTree(TreeConfig config)
    : config_(config)
{
}

std::int32_t
DecisionTree::build(const Dataset &data,
                    std::vector<std::size_t> &indices, std::size_t depth)
{
    const auto node_id = static_cast<std::int32_t>(nodes_.size());
    nodes_.emplace_back();

    std::size_t positives = 0;
    for (std::size_t i : indices)
        positives += data.y[i];
    const double frac = indices.empty()
        ? 0.5
        : static_cast<double>(positives) /
              static_cast<double>(indices.size());
    nodes_[node_id].value = frac;

    const bool pure = positives == 0 || positives == indices.size();
    if (pure || depth >= config_.maxDepth ||
        indices.size() < config_.minSamplesSplit) {
        return node_id;
    }

    // Greedy best Gini split across all features.
    const std::size_t d = data.dim();
    double best_gini = 2.0;
    std::size_t best_feature = 0;
    double best_threshold = 0.0;

    std::vector<std::pair<double, int>> column(indices.size());
    for (std::size_t f = 0; f < d; ++f) {
        for (std::size_t k = 0; k < indices.size(); ++k) {
            column[k] = {data.x[indices[k]][f], data.y[indices[k]]};
        }
        std::sort(column.begin(), column.end());

        std::size_t left_n = 0;
        std::size_t left_pos = 0;
        const std::size_t total_n = column.size();
        const std::size_t total_pos = positives;
        for (std::size_t k = 0; k + 1 < total_n; ++k) {
            ++left_n;
            left_pos += column[k].second;
            if (column[k].first == column[k + 1].first)
                continue;  // no threshold between equal values
            const std::size_t right_n = total_n - left_n;
            if (left_n < config_.minSamplesLeaf ||
                right_n < config_.minSamplesLeaf) {
                continue;
            }
            const double lp = static_cast<double>(left_pos) /
                              static_cast<double>(left_n);
            const double rp =
                static_cast<double>(total_pos - left_pos) /
                static_cast<double>(right_n);
            const double gini_left = 2.0 * lp * (1.0 - lp);
            const double gini_right = 2.0 * rp * (1.0 - rp);
            const double weighted =
                (gini_left * static_cast<double>(left_n) +
                 gini_right * static_cast<double>(right_n)) /
                static_cast<double>(total_n);
            if (weighted < best_gini) {
                best_gini = weighted;
                best_feature = f;
                best_threshold =
                    0.5 * (column[k].first + column[k + 1].first);
            }
        }
    }

    if (best_gini >= 2.0)
        return node_id;  // no admissible split

    std::vector<std::size_t> left_idx;
    std::vector<std::size_t> right_idx;
    for (std::size_t i : indices) {
        if (data.x[i][best_feature] <= best_threshold)
            left_idx.push_back(i);
        else
            right_idx.push_back(i);
    }
    panic_if(left_idx.empty() || right_idx.empty(),
             "degenerate decision-tree split");

    indices.clear();
    indices.shrink_to_fit();

    const std::int32_t left = build(data, left_idx, depth + 1);
    const std::int32_t right = build(data, right_idx, depth + 1);
    nodes_[node_id].leaf = false;
    nodes_[node_id].feature = best_feature;
    nodes_[node_id].threshold = best_threshold;
    nodes_[node_id].left = left;
    nodes_[node_id].right = right;
    return node_id;
}

void
DecisionTree::train(const Dataset &data, Rng &rng)
{
    (void)rng;  // CART is deterministic
    fatal_if(data.empty(), "cannot train DT on empty data");
    data.validate();
    nodes_.clear();
    std::vector<std::size_t> indices(data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        indices[i] = i;
    build(data, indices, 0);
    flat_ = flattenTree(nodes_, nullptr);
}

FlatTree
flattenTree(const std::vector<DecisionTree::Node> &nodes,
            const std::vector<std::size_t> *map)
{
    FlatTree out;
    out.feature.reserve(nodes.size());
    out.threshold.reserve(nodes.size());
    out.left.reserve(nodes.size());
    out.right.reserve(nodes.size());
    out.value.reserve(nodes.size());
    for (std::size_t n = 0; n < nodes.size(); ++n) {
        const DecisionTree::Node &node = nodes[n];
        if (node.leaf) {
            out.feature.push_back(-1);
            out.threshold.push_back(0.0);
            out.left.push_back(static_cast<std::int64_t>(n));
            out.right.push_back(static_cast<std::int64_t>(n));
        } else {
            panic_if(map != nullptr && node.feature >= map->size(),
                     "tree split feature ", node.feature,
                     " outside its feature selection (", map->size(),
                     " entries)");
            const std::size_t f =
                map == nullptr ? node.feature : (*map)[node.feature];
            out.feature.push_back(static_cast<std::int64_t>(f));
            out.threshold.push_back(node.threshold);
            out.left.push_back(node.left);
            out.right.push_back(node.right);
        }
        out.value.push_back(node.value);
    }
    return out;
}

std::vector<double>
DecisionTree::scoreBatch(const features::FeatureMatrix &x) const
{
    panic_if(nodes_.empty(), "DT scored before training");
    std::vector<double> out(x.rows());
    for (std::size_t r = 0; r < x.rows(); ++r)
        out[r] = treeLeaf(flat_, x.row(r));
    return out;
}

std::unique_ptr<Classifier>
DecisionTree::clone() const
{
    return std::make_unique<DecisionTree>(*this);
}

std::size_t
DecisionTree::depth() const
{
    if (nodes_.empty())
        return 0;
    std::function<std::size_t(std::int32_t)> walk =
        [&](std::int32_t node) -> std::size_t {
        if (nodes_[node].leaf)
            return 1;
        return 1 + std::max(walk(nodes_[node].left),
                            walk(nodes_[node].right));
    };
    return walk(0);
}

} // namespace rhmd::ml

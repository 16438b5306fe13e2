/**
 * @file
 * Structure-of-arrays decision-tree layout for the traversal kernels.
 */

#ifndef RHMD_ML_FLAT_TREE_HH
#define RHMD_ML_FLAT_TREE_HH

#include <cstdint>
#include <vector>

namespace rhmd::ml
{

/**
 * One decision tree flattened into structure-of-arrays node fields
 * for the traversal kernels. Leaves carry feature = -1 (and point
 * their children at themselves).
 *
 * A random forest gives each of its trees of at most 64 leaves a
 * bitvector form (RandomForest::train), which the avx2 forest kernel
 * evaluates without dependent loads: leafValue numbers the leaves
 * left to right, and a row that fails split k's
 * `x[splitFeature[k]] <= splitThreshold[k]` test cannot reach the
 * leaves set in leftLeaves[k] (the split's left subtree). The leaf a
 * row reaches is the lowest one no failed test rules out. These
 * vectors are empty for larger trees and for single decision trees.
 */
struct FlatTree
{
    std::vector<std::int64_t> feature;  ///< split feature, -1 = leaf
    std::vector<double> threshold;      ///< go left when x[f] <= t
    std::vector<std::int64_t> left;     ///< child ids (leaf: self)
    std::vector<std::int64_t> right;
    std::vector<double> value;          ///< leaf positive fraction

    std::vector<std::int64_t> splitFeature;
    std::vector<double> splitThreshold;
    std::vector<std::uint64_t> leftLeaves;
    std::vector<double> leafValue;

    std::size_t size() const { return feature.size(); }
    bool empty() const { return feature.empty(); }
};

} // namespace rhmd::ml

#endif // RHMD_ML_FLAT_TREE_HH

/**
 * @file
 * Flat node-array decision-tree layout for the tree walk.
 */

#ifndef RHMD_ML_FLAT_TREE_HH
#define RHMD_ML_FLAT_TREE_HH

#include <cstdint>
#include <vector>

namespace rhmd::ml
{

/**
 * One decision tree flattened into parallel node arrays for
 * ml::treeLeaf. Leaves carry feature = -1 (and point their children
 * at themselves).
 */
struct FlatTree
{
    std::vector<std::int64_t> feature;  ///< split feature, -1 = leaf
    std::vector<double> threshold;      ///< go left when x[f] <= t
    std::vector<std::int64_t> left;     ///< child ids (leaf: self)
    std::vector<std::int64_t> right;
    std::vector<double> value;          ///< leaf positive fraction
};

} // namespace rhmd::ml

#endif // RHMD_ML_FLAT_TREE_HH

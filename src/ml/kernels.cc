/**
 * @file
 * Shared scoring kernels.
 *
 * Built with -ffp-contract=off: linearMargin is a multiply-add chain,
 * and a fused multiply-add would round differently from the
 * support::dot margins training computes.
 */

#include "ml/kernels.hh"

namespace rhmd::ml
{

void
linearMargin(const features::FeatureMatrix &x, const double *w,
             double bias, double *out)
{
    const std::size_t d = x.cols();
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.row(r);
        double z = 0.0;
        for (std::size_t j = 0; j < d; ++j)
            z += w[j] * row[j];
        out[r] = z + bias;
    }
}

double
treeLeaf(const std::vector<DecisionTree::Node> &nodes, const double *row)
{
    std::size_t n = 0;
    while (!nodes[n].leaf) {
        const DecisionTree::Node &node = nodes[n];
        n = static_cast<std::size_t>(row[node.feature] <= node.threshold
                                         ? node.left
                                         : node.right);
    }
    return nodes[n].value;
}

} // namespace rhmd::ml

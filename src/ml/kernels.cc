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
treeLeaf(const FlatTree &tree, const double *row)
{
    std::size_t node = 0;
    while (tree.feature[node] >= 0) {
        const auto f = static_cast<std::size_t>(tree.feature[node]);
        node = row[f] <= tree.threshold[node]
            ? static_cast<std::size_t>(tree.left[node])
            : static_cast<std::size_t>(tree.right[node]);
    }
    return tree.value[node];
}

} // namespace rhmd::ml

/**
 * @file
 * Scoring kernels shared by more than one classifier family.
 *
 * linearMargin is the affine sweep behind LR, SVM and the MLP hidden
 * units; treeLeaf is the node walk behind DT and RF. A row's
 * arithmetic never depends on the other rows of its batch, so a
 * window scores the same alone as in any batch (DESIGN.md section
 * 14).
 */

#ifndef RHMD_ML_KERNELS_HH
#define RHMD_ML_KERNELS_HH

#include "features/matrix.hh"
#include "ml/decision_tree.hh"

namespace rhmd::ml
{

/**
 * out[r] = (sum_j w[j] * x[r][j]) + bias for r < x.rows(), with the
 * sum accumulated in ascending-j order per row (the support::dot
 * order training uses). w has x.cols() entries.
 */
void linearMargin(const features::FeatureMatrix &x, const double *w,
                  double bias, double *out);

/**
 * The leaf value @p row reaches in the grown tree @p nodes. A split
 * sends the row left when `row[f] <= t`, so a NaN feature goes right.
 */
double treeLeaf(const std::vector<DecisionTree::Node> &nodes,
                const double *row);

} // namespace rhmd::ml

#endif // RHMD_ML_KERNELS_HH

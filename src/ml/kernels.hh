/**
 * @file
 * Runtime-dispatched scoring kernels over the SoA feature layout.
 *
 * Every hot loop of the scoring path — the LR/SVM/MLP affine
 * margins, decision-tree and forest traversal, the standardizer, and
 * the per-window count-to-rate conversions — is reachable through
 * one KernelTable of function pointers. kernels() returns the table
 * for simd::activeTarget(): the "scalar" table holds the reference
 * implementations (the only scalar scoring path), and each vector
 * table (sse2/avx2) holds kernels that vectorize ACROSS independent
 * elements only, so their results are
 * bit-identical to the scalar siblings on every input — including
 * NaN/Inf propagation — not merely close (DESIGN.md section 14).
 *
 * Output-buffer contract: kernels that score a FeatureMatrix write
 * results for rows [0, x.rows()) and may also store garbage into
 * [x.rows(), x.paddedRows()) when the SoA view exists, so callers
 * must size output buffers to paddedRows() (scoreSpan() below) and
 * must never read past rows(): padding lanes are not windows and
 * carry no decisions. Vector kernels fall back to the scalar
 * reference when the matrix has no SoA view.
 */

#ifndef RHMD_ML_KERNELS_HH
#define RHMD_ML_KERNELS_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "features/matrix.hh"
#include "ml/flat_tree.hh"
#include "support/simd.hh"

namespace rhmd::ml
{

/** Per-target kernel bundle; all functions share the scalar
 *  reference's bit-exact semantics. */
struct KernelTable
{
    simd::Target target;

    /**
     * out[r] = (sum_j w[j] * x[r][j]) + bias for r < x.rows(), with
     * the sum accumulated in ascending-j order per row (the
     * support::dot order training uses). w has x.cols() entries.
     */
    void (*linearMargin)(const features::FeatureMatrix &x,
                         const double *w, double bias, double *out);

    /** row[j] = (row[j] - mean[j]) / scale[j] for j < n. */
    void (*standardizeRow)(double *row, const double *mean,
                           const double *scale, std::size_t n);

    /** out[r] = leaf value reached by row r in @p tree. */
    void (*treeScore)(const FlatTree &tree,
                      const features::FeatureMatrix &x, double *out);

    /**
     * out[r] = (sum over trees, ascending, of the leaf reached by
     * row r) / nTrees — the forest's mean-of-leaves order.
     */
    void (*forestScore)(const FlatTree *trees, std::size_t nTrees,
                        const features::FeatureMatrix &x, double *out);

    /** out[k] = counts[k] / insts for k < n (exact u32 convert). */
    void (*rateConvertU32)(const std::uint32_t *counts, std::size_t n,
                           double insts, double *out);

    /** accum[k] += counts[k] / insts for k < n. */
    void (*rateAccumulateU32)(const std::uint32_t *counts,
                              std::size_t n, double insts,
                              double *accum);

    /** out[k] = num[k] / denom for k < n. */
    void (*rateConvertF64)(const double *num, std::size_t n,
                           double denom, double *out);
};

/** The kernel table for simd::activeTarget(). */
const KernelTable &kernels();

/** The kernel table for a specific target (fatal if unsupported). */
const KernelTable &kernelsFor(simd::Target target);

/**
 * A scoring scratch buffer sized for @p x: paddedRows() when the SoA
 * view exists (full-width kernel stores), else rows().
 */
inline std::vector<double>
scoreSpan(const features::FeatureMatrix &x)
{
    return std::vector<double>(
        x.hasSoa() ? x.paddedRows() : x.rows(), 0.0);
}

} // namespace rhmd::ml

#endif // RHMD_ML_KERNELS_HH

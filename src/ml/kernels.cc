/**
 * @file
 * Scalar reference kernels and the per-target dispatch registry.
 *
 * The scalar table below is the semantic ground truth and the only
 * scalar scoring path: every Classifier::scoreBatch() runs through a
 * kernel table, and RHMD_SIMD=scalar selects this one. Vector tables
 * register here via the detail::*Table() accessors defined in their
 * own translation units; this file is compiled without any extra ISA
 * flags so the reference path runs on any machine.
 */

#include "ml/kernels.hh"

#include "ml/kernels_impl.hh"
#include "support/logging.hh"

namespace rhmd::ml
{

namespace
{

void
scalarLinearMargin(const features::FeatureMatrix &x, const double *w,
                   double bias, double *out)
{
    const std::size_t d = x.cols();
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.row(r);
        // Same left-to-right accumulation as support::dot, the
        // order training computes its margins in.
        double z = 0.0;
        for (std::size_t j = 0; j < d; ++j)
            z += w[j] * row[j];
        out[r] = z + bias;
    }
}

void
scalarStandardizeRow(double *row, const double *mean,
                     const double *scale, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        row[j] = (row[j] - mean[j]) / scale[j];
}

/** The leaf row @p row reaches: NaN features compare false against
 *  the threshold and go right (`x[f] <= t` selects left). */
double
flatTreeLeaf(const FlatTree &tree, const double *row)
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

void
scalarTreeScore(const FlatTree &tree, const features::FeatureMatrix &x,
                double *out)
{
    panic_if(tree.empty(), "tree kernel on an untrained tree");
    for (std::size_t r = 0; r < x.rows(); ++r)
        out[r] = flatTreeLeaf(tree, x.row(r));
}

void
scalarForestScore(const FlatTree *trees, std::size_t nTrees,
                  const features::FeatureMatrix &x, double *out)
{
    panic_if(nTrees == 0, "forest kernel on an untrained forest");
    // Per row: ascending-tree running sum, then one divide — the
    // forest's mean-of-leaves order.
    for (std::size_t r = 0; r < x.rows(); ++r) {
        const double *row = x.row(r);
        double total = 0.0;
        for (std::size_t t = 0; t < nTrees; ++t)
            total += flatTreeLeaf(trees[t], row);
        out[r] = total / static_cast<double>(nTrees);
    }
}

void
scalarRateConvertU32(const std::uint32_t *counts, std::size_t n,
                     double insts, double *out)
{
    for (std::size_t k = 0; k < n; ++k)
        out[k] = static_cast<double>(counts[k]) / insts;
}

void
scalarRateAccumulateU32(const std::uint32_t *counts, std::size_t n,
                        double insts, double *accum)
{
    for (std::size_t k = 0; k < n; ++k)
        accum[k] += static_cast<double>(counts[k]) / insts;
}

void
scalarRateConvertF64(const double *num, std::size_t n, double denom,
                     double *out)
{
    for (std::size_t k = 0; k < n; ++k)
        out[k] = num[k] / denom;
}

} // namespace

namespace detail
{

const KernelTable &
scalarTable()
{
    static const KernelTable table{
        simd::Target::Scalar,
        scalarLinearMargin,
        scalarStandardizeRow,
        scalarTreeScore,
        scalarForestScore,
        scalarRateConvertU32,
        scalarRateAccumulateU32,
        scalarRateConvertF64,
    };
    return table;
}

} // namespace detail

const KernelTable &
kernelsFor(simd::Target target)
{
    switch (target) {
      case simd::Target::Scalar:
        return detail::scalarTable();
      case simd::Target::Sse2:
#if defined(__SSE2__)
        return detail::sse2Table();
#else
        break;
#endif
      case simd::Target::Avx2:
#if defined(RHMD_SIMD_HAVE_AVX2)
        return detail::avx2Table();
#else
        break;
#endif
    }
    rhmd_fatal("no kernels compiled for simd target '",
               simd::targetName(target), "'");
}

const KernelTable &
kernels()
{
    return kernelsFor(simd::activeTarget());
}

} // namespace rhmd::ml

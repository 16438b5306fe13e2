/**
 * @file
 * Vec-templated kernel bodies shared by every per-target translation
 * unit (kernels_sse2.cc, kernels_avx2.cc).
 *
 * Each body is the scalar reference loop with its independent-element
 * dimension strip-mined to Vec::kLanes: linearMargin runs one batch
 * row per lane with the per-row j-ascending accumulation untouched,
 * and the element-wise kernels (standardize, rate conversion) split
 * into a full-vector body plus a scalar tail that is literally the
 * reference loop. No body ever reassociates a reduction, so results
 * are bit-identical to the scalar table on every input (DESIGN.md
 * section 14).
 *
 * Only for inclusion by kernel TUs; not part of the public surface.
 */

#ifndef RHMD_ML_KERNELS_IMPL_HH
#define RHMD_ML_KERNELS_IMPL_HH

#include <cstddef>
#include <cstdint>

#include "ml/kernels.hh"

namespace rhmd::ml::detail
{

/** The scalar reference table (defined in kernels.cc). */
const KernelTable &scalarTable();

#if defined(__SSE2__)
const KernelTable &sse2Table();
#endif
#if defined(RHMD_SIMD_HAVE_AVX2)
const KernelTable &avx2Table();
#endif

/**
 * out[r] = sum_j w[j] * x[r][j] + bias over the SoA view, one row
 * per lane. Lane r's accumulation is exactly the scalar reference's:
 * acc starts at +0.0, adds w[j] * x[r][j] in ascending j, then adds
 * bias last. Stores every padded row (callers size for paddedRows()).
 */
template <typename Vec>
void
linearMarginVec(const features::FeatureMatrix &x, const double *w,
                double bias, double *out)
{
    if (!x.hasSoa()) {
        scalarTable().linearMargin(x, w, bias, out);
        return;
    }
    const std::size_t pr = x.paddedRows();
    const std::size_t d = x.cols();
    // Columns are one contiguous block; hoist the base pointer so the
    // hot loop never calls the (out-of-line, bounds-checked) col().
    const double *soa = x.col(0);
    const Vec vbias = Vec::broadcast(bias);
    // Two row-blocks per pass: the per-row j-ascending add chain is
    // latency-bound, and a second independent accumulator doubles the
    // ILP without reassociating any row's reduction (each lane still
    // sums in exactly the scalar order). paddedRows() is a multiple
    // of kMaxLanes, which 2 * kLanes always divides.
    std::size_t r = 0;
    for (; r + 2 * Vec::kLanes <= pr; r += 2 * Vec::kLanes) {
        Vec acc0 = Vec::zero();
        Vec acc1 = Vec::zero();
        const double *p = soa + r;
        for (std::size_t j = 0; j < d; ++j) {
            const Vec vw = Vec::broadcast(w[j]);
            acc0 = acc0 + vw * Vec::load(p + j * pr);
            acc1 = acc1 + vw * Vec::load(p + j * pr + Vec::kLanes);
        }
        (acc0 + vbias).store(out + r);
        (acc1 + vbias).store(out + r + Vec::kLanes);
    }
    for (; r < pr; r += Vec::kLanes) {
        Vec acc = Vec::zero();
        const double *p = soa + r;
        for (std::size_t j = 0; j < d; ++j)
            acc = acc + Vec::broadcast(w[j]) * Vec::load(p + j * pr);
        (acc + vbias).store(out + r);
    }
}

/** row[j] = (row[j] - mean[j]) / scale[j], vector body + scalar tail. */
template <typename Vec>
void
standardizeRowVec(double *row, const double *mean, const double *scale,
                  std::size_t n)
{
    std::size_t j = 0;
    for (; j + Vec::kLanes <= n; j += Vec::kLanes) {
        ((Vec::load(row + j) - Vec::load(mean + j)) /
         Vec::load(scale + j))
            .store(row + j);
    }
    for (; j < n; ++j)
        row[j] = (row[j] - mean[j]) / scale[j];
}

/** out[k] = counts[k] / insts (exact u32 -> double convert). */
template <typename Vec>
void
rateConvertU32Vec(const std::uint32_t *counts, std::size_t n,
                  double insts, double *out)
{
    const Vec vinsts = Vec::broadcast(insts);
    std::size_t k = 0;
    for (; k + Vec::kLanes <= n; k += Vec::kLanes)
        (Vec::fromU32(counts + k) / vinsts).store(out + k);
    for (; k < n; ++k)
        out[k] = static_cast<double>(counts[k]) / insts;
}

/** accum[k] += counts[k] / insts. */
template <typename Vec>
void
rateAccumulateU32Vec(const std::uint32_t *counts, std::size_t n,
                     double insts, double *accum)
{
    const Vec vinsts = Vec::broadcast(insts);
    std::size_t k = 0;
    for (; k + Vec::kLanes <= n; k += Vec::kLanes) {
        (Vec::load(accum + k) + Vec::fromU32(counts + k) / vinsts)
            .store(accum + k);
    }
    for (; k < n; ++k)
        accum[k] += static_cast<double>(counts[k]) / insts;
}

/** out[k] = num[k] / denom. */
template <typename Vec>
void
rateConvertF64Vec(const double *num, std::size_t n, double denom,
                  double *out)
{
    const Vec vdenom = Vec::broadcast(denom);
    std::size_t k = 0;
    for (; k + Vec::kLanes <= n; k += Vec::kLanes)
        (Vec::load(num + k) / vdenom).store(out + k);
    for (; k < n; ++k)
        out[k] = num[k] / denom;
}

} // namespace rhmd::ml::detail

#endif // RHMD_ML_KERNELS_IMPL_HH

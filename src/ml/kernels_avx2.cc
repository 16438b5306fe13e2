/**
 * @file
 * AVX2 kernel table: 4-lane instantiations of the shared bodies.
 *
 * This is the only translation unit compiled with -mavx2 (and
 * -ffp-contract=off so no multiply-add ever fuses — fusion would
 * round differently from the scalar reference and break the
 * bit-equality gate). It is linked unconditionally but only ever
 * called when runtime dispatch selected the avx2 target, which
 * requires __builtin_cpu_supports("avx2").
 *
 * The forest kernel evaluates four rows per vector over each tree's
 * bitvector form (FlatTree): per split, one contiguous SoA load, a
 * _CMP_NLE_UQ compare (true exactly where the scalar walk's
 * `x[f] <= t` is false, NaN included) and a mask-out of the split's
 * left-subtree leaves; the exit leaf is the lowest surviving bit.
 * Leaf values sum in ascending tree order per lane with one final
 * divide, the scalar kernel's order. It has no dependent loads, so it
 * measured about twice the scalar walk's rows/s on a 30-tree forest
 * on an AVX-512-class Xeon, where a lockstep gather traversal of the
 * node arrays measured 0.4-0.7x. Forests with a tree of more than
 * 64 leaves, and single trees (no faster than the plain walk), stay
 * on the scalar walk.
 */

#include "ml/kernels_impl.hh"

#if defined(__AVX2__)

#include <bit>
#include <immintrin.h>

namespace rhmd::ml::detail
{

namespace
{

/** Leaf values rows [r, r+4) of the SoA view reach in @p tree. */
__m256d
exitLeaves(const FlatTree &tree, const double *soa,
           std::int64_t paddedRows, std::int64_t r)
{
    __m256i reachable = _mm256_set1_epi64x(-1);
    for (std::size_t k = 0; k < tree.splitFeature.size(); ++k) {
        const __m256d x =
            _mm256_loadu_pd(soa + tree.splitFeature[k] * paddedRows + r);
        const __m256d failed = _mm256_cmp_pd(
            x, _mm256_set1_pd(tree.splitThreshold[k]), _CMP_NLE_UQ);
        const __m256i ruled_out = _mm256_and_si256(
            _mm256_castpd_si256(failed),
            _mm256_set1_epi64x(static_cast<long long>(tree.leftLeaves[k])));
        reachable = _mm256_andnot_si256(ruled_out, reachable);
    }
    alignas(32) std::uint64_t lanes[4];
    _mm256_store_si256(reinterpret_cast<__m256i *>(lanes), reachable);
    return _mm256_set_pd(tree.leafValue[std::countr_zero(lanes[3])],
                         tree.leafValue[std::countr_zero(lanes[2])],
                         tree.leafValue[std::countr_zero(lanes[1])],
                         tree.leafValue[std::countr_zero(lanes[0])]);
}

void
forestScoreAvx2(const FlatTree *trees, std::size_t nTrees,
                const features::FeatureMatrix &x, double *out)
{
    bool bitvector = nTrees > 0 && x.hasSoa() && x.rows() > 0;
    for (std::size_t t = 0; bitvector && t < nTrees; ++t)
        bitvector = !trees[t].leafValue.empty();
    if (!bitvector) {
        scalarTable().forestScore(trees, nTrees, x, out);
        return;
    }
    const double *soa = x.col(0);
    const auto pr = static_cast<std::int64_t>(x.paddedRows());
    const __m256d n = _mm256_set1_pd(static_cast<double>(nTrees));
    for (std::int64_t r = 0; r < pr; r += 4) {
        __m256d total = _mm256_setzero_pd();
        for (std::size_t t = 0; t < nTrees; ++t)
            total = _mm256_add_pd(total, exitLeaves(trees[t], soa, pr, r));
        _mm256_storeu_pd(out + r, _mm256_div_pd(total, n));
    }
}

} // namespace

const KernelTable &
avx2Table()
{
    static const KernelTable table = [] {
        KernelTable t = scalarTable();
        t.target = simd::Target::Avx2;
        t.linearMargin = linearMarginVec<simd::VecAvx2>;
        t.standardizeRow = standardizeRowVec<simd::VecAvx2>;
        t.forestScore = forestScoreAvx2;
        t.rateConvertU32 = rateConvertU32Vec<simd::VecAvx2>;
        t.rateAccumulateU32 = rateAccumulateU32Vec<simd::VecAvx2>;
        t.rateConvertF64 = rateConvertF64Vec<simd::VecAvx2>;
        return t;
    }();
    return table;
}

} // namespace rhmd::ml::detail

#endif // __AVX2__

/**
 * @file
 * Portable SIMD lanes for the scoring hot path.
 *
 * Two things live here:
 *
 *  1. The dispatch surface: a Target enum naming every instruction
 *     set the kernels are built for, host capability detection, and
 *     the process-wide active target (resolved once from the
 *     RHMD_SIMD environment override, or the best target the host
 *     supports). The ml kernel tables (src/ml/kernels.hh) key off
 *     the active target.
 *
 *  2. Vec<double> lane wrappers — one small struct per instruction
 *     set, all with the same interface (kLanes, load/store,
 *     broadcast, +,-,*,/ and an exact u32 -> double convert) — so
 *     one templated kernel body (src/ml/kernels_impl.hh) can be
 *     instantiated per target TU. Each wrapper is only defined when
 *     the translation unit is compiled for that instruction set
 *     (__SSE2__/__AVX2__), which is how the per-target
 *     kernel files select their width.
 *
 * Determinism contract (DESIGN.md section 14): kernels built on these
 * wrappers vectorize ACROSS independent elements (batch rows, matrix
 * columns, histogram bins) and never across a single floating-point
 * reduction chain. Every lane therefore performs the exact operation
 * sequence of the scalar reference sibling, and all targets produce
 * bit-identical results — IEEE-754 +,-,*,/ are exactly rounded, and
 * no wrapper ever emits a fused multiply-add.
 */

#ifndef RHMD_SUPPORT_SIMD_HH
#define RHMD_SUPPORT_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif
#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace rhmd::simd
{

/** Instruction sets the scoring kernels are specialized for. */
enum class Target : std::uint8_t
{
    Scalar = 0,  ///< reference implementation, any machine
    Sse2,        ///< x86-64 baseline, 2 double lanes
    Avx2,        ///< 4 double lanes
};

/**
 * Rows of every SoA view are padded to a multiple of this, so any
 * target's widest kernel can run full vectors over the tail. Padding
 * rows are zero-filled and are never windows: no kernel may surface
 * a score or decision for them (see features::FeatureMatrix).
 */
constexpr std::size_t kMaxLanes = 8;

/** Lower-case target name ("scalar", "sse2", "avx2"). */
const char *targetName(Target target);

/**
 * True when @p target is usable here: the kernels were compiled for
 * it at build time and the host CPU executes it.
 */
bool targetSupported(Target target);

/** Every supported target, ordered scalar first, widest last. */
std::vector<Target> supportedTargets();

/** The widest supported target (what "auto" resolves to). */
Target bestTarget();

/**
 * Parse a RHMD_SIMD-style name: "scalar", "sse2", "avx2" or "auto".
 * Fatal on an unknown name or a target this machine cannot run — a
 * forced target must never silently degrade, or the CI
 * dispatch matrix would diff a lane width it did not ask for.
 */
Target parseTarget(const std::string &name);

/**
 * The target every kernel dispatch uses. Resolved once, on first
 * use: the RHMD_SIMD environment variable if set (see parseTarget),
 * otherwise bestTarget().
 */
Target activeTarget();

/**
 * Override the active target (tests and the scalar-vs-vector bench
 * legs). Fatal if unsupported. Not synchronized against concurrent
 * scoring — switch only while no batch is in flight.
 */
void setActiveTarget(Target target);

// --- Vec wrappers ---------------------------------------------------
//
// All wrappers implement, for W = kLanes doubles:
//   load(p)/store(p)   unaligned W-wide load/store
//   broadcast(x)       all lanes = x
//   zero()             all lanes = +0.0
//   fromU32(p)         exact double(p[0..W)) from uint32_t
//   a + b, a - b, a * b, a / b   lane-wise, exactly rounded

#if defined(__SSE2__)
/** 2 double lanes on the x86-64 baseline. */
struct VecSse2
{
    static constexpr std::size_t kLanes = 2;
    __m128d v;

    static VecSse2 load(const double *p) { return {_mm_loadu_pd(p)}; }
    static VecSse2 broadcast(double x) { return {_mm_set1_pd(x)}; }
    static VecSse2 zero() { return {_mm_setzero_pd()}; }
    static VecSse2 fromU32(const std::uint32_t *p)
    {
        // Exact unsigned convert without AVX-512: flip the sign bit
        // so the value fits a signed convert, then add 2^31 back.
        // Both steps are exact in double precision for any uint32.
        const __m128i raw = _mm_set_epi32(
            0, 0, static_cast<std::int32_t>(p[1] ^ 0x80000000U),
            static_cast<std::int32_t>(p[0] ^ 0x80000000U));
        return {_mm_add_pd(_mm_cvtepi32_pd(raw),
                           _mm_set1_pd(2147483648.0))};
    }
    void store(double *p) const { _mm_storeu_pd(p, v); }

    friend VecSse2 operator+(VecSse2 a, VecSse2 b)
    {
        return {_mm_add_pd(a.v, b.v)};
    }
    friend VecSse2 operator-(VecSse2 a, VecSse2 b)
    {
        return {_mm_sub_pd(a.v, b.v)};
    }
    friend VecSse2 operator*(VecSse2 a, VecSse2 b)
    {
        return {_mm_mul_pd(a.v, b.v)};
    }
    friend VecSse2 operator/(VecSse2 a, VecSse2 b)
    {
        return {_mm_div_pd(a.v, b.v)};
    }
};
#endif // __SSE2__

#if defined(__AVX2__)
/** 4 double lanes (only in the -mavx2 kernel translation unit). */
struct VecAvx2
{
    static constexpr std::size_t kLanes = 4;
    __m256d v;

    static VecAvx2 load(const double *p)
    {
        return {_mm256_loadu_pd(p)};
    }
    static VecAvx2 broadcast(double x) { return {_mm256_set1_pd(x)}; }
    static VecAvx2 zero() { return {_mm256_setzero_pd()}; }
    static VecAvx2 fromU32(const std::uint32_t *p)
    {
        const __m128i raw = _mm_xor_si128(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p)),
            _mm_set1_epi32(static_cast<std::int32_t>(0x80000000U)));
        return {_mm256_add_pd(_mm256_cvtepi32_pd(raw),
                              _mm256_set1_pd(2147483648.0))};
    }
    void store(double *p) const { _mm256_storeu_pd(p, v); }

    friend VecAvx2 operator+(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_add_pd(a.v, b.v)};
    }
    friend VecAvx2 operator-(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_sub_pd(a.v, b.v)};
    }
    friend VecAvx2 operator*(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_mul_pd(a.v, b.v)};
    }
    friend VecAvx2 operator/(VecAvx2 a, VecAvx2 b)
    {
        return {_mm256_div_pd(a.v, b.v)};
    }
};
#endif // __AVX2__


} // namespace rhmd::simd

#endif // RHMD_SUPPORT_SIMD_HH

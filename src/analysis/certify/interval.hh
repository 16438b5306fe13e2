/**
 * @file
 * Interval domain for the model certifier.
 *
 * The certify pass propagates boxes (ℓ∞ balls) through classifier
 * arithmetic. The only abstract value it needs is a closed interval
 * [lo, hi] plus the transfer functions the classifier families use:
 * affine maps (dot products against a weight row) and monotone
 * activations (tanh, sigmoid). Everything here is evaluated in real
 * arithmetic over doubles; callers shave the resulting radii by
 * kFloatSafety (certifier.hh) to absorb floating-point rounding in
 * the concrete scoring path.
 */

#ifndef RHMD_ANALYSIS_CERTIFY_INTERVAL_HH
#define RHMD_ANALYSIS_CERTIFY_INTERVAL_HH

#include <cmath>
#include <cstddef>
#include <vector>

namespace rhmd::analysis::certify
{

/** A closed interval [lo, hi]; lo <= hi by construction. */
struct Interval
{
    double lo = 0.0;
    double hi = 0.0;

    /** The degenerate interval [v, v]. */
    static Interval point(double v) { return {v, v}; }

    bool contains(double v) const { return lo <= v && v <= hi; }
};

/** ℓ1 norm of a weight row (the affine transfer's box amplification). */
inline double
l1Norm(const std::vector<double> &w)
{
    double sum = 0.0;
    for (double v : w)
        sum += std::fabs(v);
    return sum;
}

/**
 * Affine transfer: the exact image of the box {x : ‖x - c‖∞ <= r}
 * under z = w·x + b is [w·c + b - r‖w‖₁, w·c + b + r‖w‖₁]. Exact
 * (not just sound) because a box's image under a linear functional
 * is attained at a vertex.
 */
inline Interval
affineImage(const std::vector<double> &w, double bias,
            const std::vector<double> &center, double radius)
{
    double z = bias;
    for (std::size_t j = 0; j < w.size(); ++j)
        z += w[j] * center[j];
    const double amp = radius * l1Norm(w);
    return {z - amp, z + amp};
}

/**
 * Monotone-activation transfer: for a non-decreasing f, the exact
 * image of [lo, hi] is [f(lo), f(hi)] — no splitting needed (the
 * ReLU-style case split degenerates for strictly monotone tanh).
 */
inline Interval
tanhImage(const Interval &z)
{
    return {std::tanh(z.lo), std::tanh(z.hi)};
}

} // namespace rhmd::analysis::certify

#endif // RHMD_ANALYSIS_CERTIFY_INTERVAL_HH

/**
 * @file
 * Abstract-interpretation certifier over trained classifiers.
 *
 * For a feature vector x in *standardized* feature space and a
 * decision rule `score(x) >= threshold`, the certifier computes a
 * **certified stability radius**: the largest r such that no
 * perturbation δ with ‖δ‖∞ <= r can flip the decision. The analysis
 * is static — it reasons over the model's weights and structure, not
 * over probe queries:
 *
 *  - LR / SVM: exact by weight-sign reasoning. The decision depends
 *    only on the affine margin z = w·x + b crossing the threshold's
 *    preimage z*, and the fastest ℓ∞ descent moves every coordinate
 *    by sign(w_j), so r = |z - z*| / ‖w‖₁.
 *  - MLP: interval arithmetic through the hidden layer (affine image
 *    of the box, then the monotone tanh transfer — the ReLU case
 *    split degenerates for tanh) and a signed rounding of the output
 *    layer; the largest certified r is found by bisection with a
 *    fixed iteration count so results are bit-identical everywhere.
 *  - DT: exact threshold-distance traversal. Each leaf with the
 *    opposite decision spans an axis-aligned box; the radius is the
 *    minimal ℓ∞ distance from x to any such box.
 *  - RF: per-tree reachable-leaf interval bounds on the mean leaf
 *    score (descending both children when the box straddles a
 *    threshold), bisected like the MLP.
 *
 * Soundness: a returned radius r guarantees, in real arithmetic,
 * that the decision is constant on the closed ball of radius r; all
 * radii are shaved by kFloatSafety so the guarantee survives the
 * floating-point rounding of the concrete scoring path. LR, SVM and
 * DT radii are exact up to that shave; MLP and RF radii are sound
 * lower bounds (interval analysis over-approximates).
 *
 * Determinism: every computation is a fixed-iteration closed-form or
 * bisection over the model parameters — no sampling, no data races,
 * no accumulation-order dependence — so certified radii are
 * bit-identical at any thread count.
 */

#ifndef RHMD_ANALYSIS_CERTIFY_CERTIFIER_HH
#define RHMD_ANALYSIS_CERTIFY_CERTIFIER_HH

#include <cstddef>
#include <limits>
#include <vector>

#include "analysis/certify/interval.hh"
#include "analysis/diagnostics.hh"
#include "ml/classifier.hh"
#include "ml/dataset.hh"
#include "support/rng.hh"

namespace rhmd::analysis::certify
{

/** Radius meaning "the decision is provably constant everywhere". */
inline constexpr double kUnboundedRadius =
    std::numeric_limits<double>::infinity();

/**
 * Relative shave applied to every certified radius so a guarantee
 * proved in real arithmetic survives floating-point rounding in the
 * concrete scoring path (dots accumulate left-to-right over tens of
 * features; the shave dominates the worst-case rounding by orders of
 * magnitude).
 */
inline constexpr double kFloatSafety = 1.0 - 1e-9;

/**
 * Preimage of `sigmoid(z) >= threshold` as a tight margin bracket:
 * an interval [lo, hi] with sigmoid(lo) < threshold <= sigmoid(hi),
 * narrowed by fixed bisection over the *actual* float sigmoid so
 * saturated thresholds are handled the way the deployed decision
 * rule computes them. Returns [-inf, -inf] when the decision is
 * constantly 1 and [+inf, +inf] when it is constantly 0.
 */
Interval sigmoidPreimage(double threshold);

/**
 * Exact stability radius of the affine decision rule
 * `w·x + b >= z*` at @p x, where @p zstar brackets z* as returned by
 * sigmoidPreimage() (kUnboundedRadius when ‖w‖₁ == 0 or the bracket
 * is infinite, 0 when w·x + b lands inside the bracket).
 */
double linearStabilityRadius(const std::vector<double> &w, double bias,
                             const Interval &zstar,
                             const std::vector<double> &x);

/**
 * Certified stability radius of `clf.score(x) >= threshold` at @p x.
 * Dispatches on the concrete classifier family (LR, SVM, NN, DT,
 * RF); fatal on an unknown family — the certifier must never
 * silently claim a radius for arithmetic it cannot analyze. The MLP
 * and RF radii are bisected over [0, 64] standardized units in a
 * fixed 50 steps; a radius certified out to 64 is reported as
 * kUnboundedRadius.
 */
double stabilityRadius(const ml::Classifier &clf, double threshold,
                       const std::vector<double> &x);

/**
 * Static audit of one detector's model parameters. Emits error
 * findings (pass "certify") with stable codes:
 *
 *  - "non-finite-weight": NaN/Inf classifier parameter
 *  - "degenerate-tree": malformed DT/RF structure (empty tree, child
 *    index out of range, non-finite threshold, leaf value outside
 *    [0, 1])
 *  - "non-finite-standardizer": NaN/Inf or non-positive standardizer
 *    mean/scale entry
 *  - "standardizer-dim-mismatch": standardizer dimensionality
 *    disagrees with @p expectDim or with the classifier's own shape
 *
 * @p detector tags the findings' function coordinate (kNoIndex when
 * auditing a lone model). Returns true when no error was added.
 */
bool auditModel(const ml::Classifier &clf,
                const ml::Standardizer &standardizer,
                std::size_t expectDim, std::size_t detector,
                Report &report);

/**
 * Randomized soundness probe for one certified radius: samples
 * @p samples perturbations δ with ‖δ‖∞ <= @p radius uniformly from
 * the seeded stream and returns the number whose decision differs
 * from the unperturbed one — zero for a sound certificate. Test and
 * tool harnesses assert on it; it is a check of the certifier, not
 * part of it.
 */
std::size_t countFlipsUnderPerturbation(const ml::Classifier &clf,
                                        double threshold,
                                        const std::vector<double> &x,
                                        double radius,
                                        std::size_t samples,
                                        std::uint64_t seed);

} // namespace rhmd::analysis::certify

#endif // RHMD_ANALYSIS_CERTIFY_CERTIFIER_HH

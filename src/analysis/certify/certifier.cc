/**
 * @file
 * Per-family certified stability radii (see certifier.hh for the
 * soundness and determinism contracts).
 */

#include "analysis/certify/certifier.hh"

#include <algorithm>
#include <cmath>

#include "ml/decision_tree.hh"
#include "ml/kernels.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "ml/svm.hh"
#include "support/logging.hh"

namespace rhmd::analysis::certify
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/**
 * Sigmoid saturation bracket: sigmoid(-800) is exactly 0.0 and
 * sigmoid(800) exactly 1.0 in IEEE double, so every achievable
 * threshold preimage lies inside.
 */
constexpr double kSigmoidBracket = 800.0;

/** Bisection iterations for sigmoidPreimage (fixed: determinism). */
constexpr std::size_t kPreimageIters = 200;

/**
 * Upper bracket of the MLP/RF radius search in standardized units.
 * Radii certified out to it are reported as kUnboundedRadius (8
 * z-score units is already far outside any real window).
 */
constexpr double kMaxRadius = 64.0;

/** Bisection iterations of the radius search (fixed: determinism). */
constexpr std::size_t kRadiusIters = 50;

/**
 * Stability radius of a thresholded decision over one CART tree's
 * leaf scores: the minimal ℓ∞ distance from @p x to any leaf region
 * whose decision differs from the decision at @p x. Exact in real
 * arithmetic; the caller shaves.
 */
double
treeOppositeLeafDistance(const std::vector<ml::DecisionTree::Node> &nodes,
                         double threshold, const std::vector<double> &x)
{
    panic_if(nodes.empty(), "certifier walked an empty tree");

    // The concrete decision at x.
    const bool d0 = ml::treeLeaf(nodes, x.data()) >= threshold;

    // DFS over all leaves, carrying the path's box constraints:
    // lower[f] < x_f <= upper[f] (left edges are closed, right edges
    // open). At an opposite-decision leaf, the ℓ∞ distance from x to
    // the box is the largest per-coordinate displacement needed.
    const std::size_t dims = x.size();
    std::vector<double> lower(dims, -kInf);
    std::vector<double> upper(dims, kInf);
    double best = kInf;

    auto walk = [&](auto &&self, std::int32_t id) -> void {
        const auto &n = nodes[static_cast<std::size_t>(id)];
        if (n.leaf) {
            if ((n.value >= threshold) == d0)
                return;
            double dist = 0.0;
            for (std::size_t f = 0; f < dims; ++f) {
                double need = 0.0;
                if (x[f] <= lower[f])
                    need = lower[f] - x[f];
                else if (x[f] > upper[f])
                    need = x[f] - upper[f];
                dist = std::max(dist, need);
            }
            best = std::min(best, dist);
            return;
        }
        const std::size_t f = n.feature;
        const double saved_upper = upper[f];
        const double saved_lower = lower[f];
        // Left: x_f <= threshold.
        upper[f] = std::min(upper[f], n.threshold);
        self(self, n.left);
        upper[f] = saved_upper;
        // Right: x_f > threshold.
        lower[f] = std::max(lower[f], n.threshold);
        self(self, n.right);
        lower[f] = saved_lower;
    };
    walk(walk, 0);
    return best;
}

/**
 * Min/max reachable leaf value of one tree over the box
 * ‖x' - x‖∞ <= r (descending both children when the box straddles a
 * split threshold).
 */
Interval
treeLeafBounds(const std::vector<ml::DecisionTree::Node> &nodes,
               const std::vector<double> &x, double r)
{
    Interval out{kInf, -kInf};
    auto walk = [&](auto &&self, std::int32_t id) -> void {
        const auto &n = nodes[static_cast<std::size_t>(id)];
        if (n.leaf) {
            out.lo = std::min(out.lo, n.value);
            out.hi = std::max(out.hi, n.value);
            return;
        }
        if (x[n.feature] - r <= n.threshold)
            self(self, n.left);
        if (x[n.feature] + r > n.threshold)
            self(self, n.right);
    };
    walk(walk, 0);
    return out;
}

/**
 * Largest radius for which @p stable holds, by bisection with a
 * fixed iteration count. @p stable must be monotone (true at 0,
 * and true at r implies true at every r' < r).
 */
template <typename Predicate>
double
bisectRadius(const Predicate &stable)
{
    if (!stable(0.0))
        return 0.0;
    if (stable(kMaxRadius))
        return kUnboundedRadius;
    double lo = 0.0;
    double hi = kMaxRadius;
    for (std::size_t i = 0; i < kRadiusIters; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (stable(mid))
            lo = mid;
        else
            hi = mid;
    }
    return lo * kFloatSafety;
}

double
mlpStabilityRadius(const ml::Mlp &mlp, double threshold,
                   const std::vector<double> &x)
{
    const Interval zstar = sigmoidPreimage(threshold);
    if (std::isinf(zstar.lo) || std::isinf(zstar.hi))
        return kUnboundedRadius;

    const auto &w1 = mlp.hiddenWeights();
    const auto &b1 = mlp.hiddenBias();
    const auto &w2 = mlp.outputWeights();

    const auto stable = [&](double r) {
        Interval out = Interval::point(mlp.outputBias());
        for (std::size_t h = 0; h < w1.size(); ++h) {
            const Interval act =
                tanhImage(affineImage(w1[h], b1[h], x, r));
            // Signed rounding of the output layer: a positive output
            // weight passes the activation interval through, a
            // negative one mirrors it.
            if (w2[h] >= 0.0) {
                out.lo += w2[h] * act.lo;
                out.hi += w2[h] * act.hi;
            } else {
                out.lo += w2[h] * act.hi;
                out.hi += w2[h] * act.lo;
            }
        }
        return out.lo >= zstar.hi || out.hi < zstar.lo;
    };
    return bisectRadius(stable);
}

double
forestStabilityRadius(const ml::RandomForest &forest, double threshold,
                      const std::vector<double> &x)
{
    const auto &trees = forest.trees();
    panic_if(trees.empty(), "certifier walked an untrained forest");
    const double inv = 1.0 / static_cast<double>(trees.size());

    const auto stable = [&](double r) {
        double lo = 0.0;
        double hi = 0.0;
        for (std::size_t t = 0; t < trees.size(); ++t) {
            const Interval bounds = treeLeafBounds(trees[t].nodes(), x, r);
            lo += bounds.lo;
            hi += bounds.hi;
        }
        lo *= inv;
        hi *= inv;
        return lo >= threshold || hi < threshold;
    };
    return bisectRadius(stable);
}

} // namespace

Interval
sigmoidPreimage(double threshold)
{
    if (ml::sigmoid(-kSigmoidBracket) >= threshold)
        return {-kInf, -kInf};  // decision constantly 1
    if (ml::sigmoid(kSigmoidBracket) < threshold)
        return {kInf, kInf};  // decision constantly 0
    double lo = -kSigmoidBracket;  // sigmoid(lo) < threshold
    double hi = kSigmoidBracket;   // sigmoid(hi) >= threshold
    for (std::size_t i = 0; i < kPreimageIters; ++i) {
        const double mid = 0.5 * (lo + hi);
        if (ml::sigmoid(mid) >= threshold)
            hi = mid;
        else
            lo = mid;
    }
    return {lo, hi};
}

double
linearStabilityRadius(const std::vector<double> &w, double bias,
                      const Interval &zstar, const std::vector<double> &x)
{
    if (std::isinf(zstar.lo) || std::isinf(zstar.hi))
        return kUnboundedRadius;
    const double norm = l1Norm(w);
    double z = bias;
    for (std::size_t j = 0; j < w.size(); ++j)
        z += w[j] * x[j];
    if (z >= zstar.hi) {
        // Decision 1: the flip region is z' < z*; z* >= zstar.lo...
        // but the certified margin must use the near edge, zstar.hi
        // is an upper bracket of z* so z - zstar.hi under-estimates
        // the true margin — sound.
        if (norm == 0.0)
            return kUnboundedRadius;
        return (z - zstar.hi) / norm * kFloatSafety;
    }
    if (z < zstar.lo) {
        // Decision 0: the flip region is z' >= z*; zstar.lo is a
        // lower bracket of z*, so zstar.lo - z under-estimates the
        // margin — sound.
        if (norm == 0.0)
            return kUnboundedRadius;
        return (zstar.lo - z) / norm * kFloatSafety;
    }
    // z lands inside the bracket: knife-edge decision, no certified
    // stability.
    return 0.0;
}

double
stabilityRadius(const ml::Classifier &clf, double threshold,
                const std::vector<double> &x)
{
    if (const auto *lr =
            dynamic_cast<const ml::LogisticRegression *>(&clf)) {
        return linearStabilityRadius(lr->weights(), lr->bias(),
                                     sigmoidPreimage(threshold), x);
    }
    if (const auto *svm = dynamic_cast<const ml::LinearSvm *>(&clf)) {
        // score = sigmoid(s * (w.x + b)): divide the sigmoid bracket
        // by the sharpness to get the bracket on the raw margin.
        const double s = svm->scoreSharpness();
        panic_if(s <= 0.0, "SVM score sharpness must be positive");
        Interval zstar = sigmoidPreimage(threshold);
        zstar.lo /= s;
        zstar.hi /= s;
        return linearStabilityRadius(svm->weights(), svm->bias(), zstar,
                                     x);
    }
    if (const auto *mlp = dynamic_cast<const ml::Mlp *>(&clf))
        return mlpStabilityRadius(*mlp, threshold, x);
    if (const auto *tree =
            dynamic_cast<const ml::DecisionTree *>(&clf)) {
        const double dist =
            treeOppositeLeafDistance(tree->nodes(), threshold, x);
        return std::isinf(dist) ? kUnboundedRadius
                                : dist * kFloatSafety;
    }
    if (const auto *forest =
            dynamic_cast<const ml::RandomForest *>(&clf))
        return forestStabilityRadius(*forest, threshold, x);
    rhmd_fatal("no certifier for classifier family '", clf.name(), "'");
}

namespace
{

/** Emit one non-finite-parameter error per offending vector. */
bool
checkFinite(const std::vector<double> &v, std::size_t detector,
            const char *what, Report &report)
{
    for (double value : v) {
        if (!std::isfinite(value)) {
            report.error("certify", "non-finite-weight", detector,
                         kNoIndex, kNoIndex,
                         std::string(what) +
                             " contains a non-finite parameter");
            return false;
        }
    }
    return true;
}

/**
 * Structure of one grown tree. A split reading a feature at or past
 * @p expectDim (when nonzero) is a shape mismatch: the tree would
 * read past the end of every feature row.
 */
bool
checkTree(const std::vector<ml::DecisionTree::Node> &nodes,
          std::size_t expectDim, std::size_t detector, std::size_t tree,
          Report &report)
{
    if (nodes.empty()) {
        report.error("certify", "degenerate-tree", detector, tree,
                     kNoIndex, "empty (untrained) tree");
        return false;
    }
    bool ok = true;
    const auto size = static_cast<std::int32_t>(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        const auto &n = nodes[i];
        if (n.leaf) {
            if (!std::isfinite(n.value) || n.value < 0.0 ||
                n.value > 1.0) {
                report.error("certify", "degenerate-tree", detector,
                             tree, i,
                             "leaf value outside [0, 1] or non-finite");
                ok = false;
            }
            continue;
        }
        if (!std::isfinite(n.threshold)) {
            report.error("certify", "degenerate-tree", detector, tree,
                         i, "non-finite split threshold");
            ok = false;
        }
        if (n.left < 0 || n.left >= size || n.right < 0 ||
            n.right >= size) {
            report.error("certify", "degenerate-tree", detector, tree,
                         i, "child index out of range");
            ok = false;
        }
        if (expectDim != 0 && n.feature >= expectDim) {
            report.error("certify", "standardizer-dim-mismatch",
                         detector, tree, i,
                         "split feature " + std::to_string(n.feature) +
                             " vs feature dim " +
                             std::to_string(expectDim));
            ok = false;
        }
    }
    return ok;
}

} // namespace

bool
auditModel(const ml::Classifier &clf,
           const ml::Standardizer &standardizer, std::size_t expectDim,
           std::size_t detector, Report &report)
{
    const std::size_t before = report.errorCount();

    // Standardizer: shapes agree and every parameter is usable.
    if (standardizer.mean.size() != standardizer.scale.size()) {
        report.error("certify", "standardizer-dim-mismatch", detector,
                     kNoIndex, kNoIndex,
                     "standardizer mean/scale sizes disagree");
    } else if (expectDim != 0 && standardizer.dim() != expectDim) {
        report.error("certify", "standardizer-dim-mismatch", detector,
                     kNoIndex, kNoIndex,
                     "standardizer dim " +
                         std::to_string(standardizer.dim()) +
                         " vs feature dim " + std::to_string(expectDim));
    }
    checkFinite(standardizer.mean, detector, "standardizer mean",
                report);
    for (double s : standardizer.scale) {
        if (!std::isfinite(s) || s <= 0.0) {
            report.error("certify", "non-finite-standardizer", detector,
                         kNoIndex, kNoIndex,
                         "standardizer scale entry non-finite or "
                         "non-positive");
            break;
        }
    }

    auto checkLinearDim = [&](std::size_t got) {
        if (expectDim != 0 && got != expectDim) {
            report.error("certify", "standardizer-dim-mismatch",
                         detector, kNoIndex, kNoIndex,
                         "classifier weight dim " + std::to_string(got) +
                             " vs feature dim " +
                             std::to_string(expectDim));
        }
    };

    if (const auto *lr =
            dynamic_cast<const ml::LogisticRegression *>(&clf)) {
        checkFinite(lr->weights(), detector, "LR weights", report);
        checkFinite({lr->bias()}, detector, "LR bias", report);
        checkLinearDim(lr->weights().size());
    } else if (const auto *svm =
                   dynamic_cast<const ml::LinearSvm *>(&clf)) {
        checkFinite(svm->weights(), detector, "SVM weights", report);
        checkFinite({svm->bias()}, detector, "SVM bias", report);
        checkLinearDim(svm->weights().size());
    } else if (const auto *mlp = dynamic_cast<const ml::Mlp *>(&clf)) {
        for (const auto &row : mlp->hiddenWeights()) {
            if (!checkFinite(row, detector, "MLP hidden weights",
                             report))
                break;
        }
        checkFinite(mlp->hiddenBias(), detector, "MLP hidden bias",
                    report);
        checkFinite(mlp->outputWeights(), detector, "MLP output weights",
                    report);
        checkFinite({mlp->outputBias()}, detector, "MLP output bias",
                    report);
        if (!mlp->hiddenWeights().empty())
            checkLinearDim(mlp->hiddenWeights().front().size());
    } else if (const auto *tree =
                   dynamic_cast<const ml::DecisionTree *>(&clf)) {
        checkTree(tree->nodes(), expectDim, detector, kNoIndex, report);
    } else if (const auto *forest =
                   dynamic_cast<const ml::RandomForest *>(&clf)) {
        for (std::size_t t = 0; t < forest->trees().size(); ++t) {
            checkTree(forest->trees()[t].nodes(), expectDim, detector, t,
                      report);
        }
    } else {
        report.error("certify", "non-finite-weight", detector, kNoIndex,
                     kNoIndex,
                     "unknown classifier family '" + clf.name() +
                         "' cannot be audited");
    }
    return report.errorCount() == before;
}

std::size_t
countFlipsUnderPerturbation(const ml::Classifier &clf, double threshold,
                            const std::vector<double> &x, double radius,
                            std::size_t samples, std::uint64_t seed)
{
    fatal_if(!std::isfinite(radius) || radius < 0.0,
             "soundness probe needs a finite non-negative radius");
    const bool d0 = clf.score(x) >= threshold;
    Rng rng(seed);
    std::vector<double> y(x.size());
    std::size_t flips = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t j = 0; j < x.size(); ++j)
            y[j] = x[j] + rng.uniform(-radius, radius);
        if ((clf.score(y) >= threshold) != d0)
            ++flips;
    }
    return flips;
}

} // namespace rhmd::analysis::certify

/**
 * @file
 * Scalar-vs-vector bit-equality tests for the SIMD scoring kernels:
 * every host-reachable dispatch target must reproduce the scalar
 * reference bit for bit — scores, standardized rows, rate features,
 * and decisions — on dense batches, ragged tails, and NaN/Inf inputs
 * (the determinism contract of DESIGN.md section 14).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "core/hmd.hh"
#include "features/matrix.hh"
#include "features/window.hh"
#include "ml/decision_tree.hh"
#include "ml/kernels.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "ml/svm.hh"
#include "support/rng.hh"
#include "support/simd.hh"

namespace
{

using namespace rhmd;

/** Restore the dispatch target a test overrode, even on failure. */
class TargetGuard
{
  public:
    TargetGuard() : saved_(simd::activeTarget()) {}
    ~TargetGuard() { simd::setActiveTarget(saved_); }
    TargetGuard(const TargetGuard &) = delete;
    TargetGuard &operator=(const TargetGuard &) = delete;

  private:
    simd::Target saved_;
};

/** The batch sizes every kernel must handle: single row, odd, one
 *  below/at/above the canonical 64-row batch (unaligned tails). */
const std::vector<std::size_t> kRaggedSizes = {1, 3, 63, 64, 65};

features::FeatureMatrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed,
             bool soa = true)
{
    Rng rng(seed);
    features::FeatureMatrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        double *row = m.row(r);
        for (std::size_t j = 0; j < cols; ++j)
            row[j] = rng.uniform(-3.0, 3.0);
    }
    if (soa)
        m.buildSoa();
    return m;
}

void
expectBitEqual(const std::vector<double> &got,
               const std::vector<double> &want, const char *label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << label << " row " << i << ": " << got[i]
            << " != " << want[i];
    }
}

/** Run @p body once per host-supported non-scalar target, with the
 *  active target switched for its duration. */
template <typename Body>
void
forEachVectorTarget(Body body)
{
    TargetGuard guard;
    for (simd::Target target : simd::supportedTargets()) {
        if (target == simd::Target::Scalar)
            continue;
        simd::setActiveTarget(target);
        body(target);
    }
}

TEST(Dispatch, ScalarIsAlwaysSupportedAndListedFirst)
{
    const std::vector<simd::Target> targets = simd::supportedTargets();
    ASSERT_FALSE(targets.empty());
    EXPECT_EQ(targets.front(), simd::Target::Scalar);
    EXPECT_TRUE(simd::targetSupported(simd::Target::Scalar));
    EXPECT_EQ(simd::bestTarget(), targets.back());
}

TEST(Dispatch, ParseTargetRoundTripsEverySupportedName)
{
    for (simd::Target target : simd::supportedTargets())
        EXPECT_EQ(simd::parseTarget(simd::targetName(target)), target);
    EXPECT_EQ(simd::parseTarget("auto"), simd::bestTarget());
}

TEST(Dispatch, UnknownTargetNameIsFatal)
{
    // There is no neon target: aarch64 builds run the scalar table.
    for (const char *name : {"avx1024", "neon"}) {
        EXPECT_DEATH((void)simd::parseTarget(name),
                     "unknown RHMD_SIMD target");
    }
}

TEST(Dispatch, KernelTableMatchesRequestedTarget)
{
    for (simd::Target target : simd::supportedTargets())
        EXPECT_EQ(ml::kernelsFor(target).target, target);
}

TEST(Soa, RoundTripPaddingAndAlignment)
{
    for (std::size_t rows : kRaggedSizes) {
        features::FeatureMatrix m = randomMatrix(rows, 7, 11 + rows);
        ASSERT_TRUE(m.hasSoa());
        EXPECT_EQ(m.paddedRows() % simd::kMaxLanes, 0u);
        EXPECT_GE(m.paddedRows(), rows);
        for (std::size_t j = 0; j < m.cols(); ++j) {
            const double *col = m.col(j);
            for (std::size_t r = 0; r < rows; ++r) {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(col[r]),
                          std::bit_cast<std::uint64_t>(m.row(r)[j]));
            }
            for (std::size_t r = rows; r < m.paddedRows(); ++r)
                EXPECT_EQ(col[r], 0.0);  // padding is zero, not junk
        }
    }
}

TEST(Kernels, LinearMarginBitEqualAcrossTargetsAndTails)
{
    const std::size_t d = 37;
    Rng rng(99);
    std::vector<double> w(d);
    for (double &x : w)
        x = rng.uniform(-1.0, 1.0);
    const double bias = rng.uniform(-1.0, 1.0);

    for (std::size_t rows : kRaggedSizes) {
        const features::FeatureMatrix m = randomMatrix(rows, d, rows);
        std::vector<double> ref(rows, 0.0);
        ml::kernelsFor(simd::Target::Scalar)
            .linearMargin(m, w.data(), bias, ref.data());
        forEachVectorTarget([&](simd::Target target) {
            std::vector<double> got = ml::scoreSpan(m);
            ml::kernels().linearMargin(m, w.data(), bias, got.data());
            got.resize(rows);
            expectBitEqual(got, ref, simd::targetName(target));
        });
    }
}

TEST(Kernels, NanAndInfPropagateIdentically)
{
    const std::size_t d = 9;
    features::FeatureMatrix m = randomMatrix(66, d, 5, /*soa=*/false);
    m.row(1)[3] = std::numeric_limits<double>::quiet_NaN();
    m.row(64)[0] = std::numeric_limits<double>::infinity();
    m.row(65)[8] = -std::numeric_limits<double>::infinity();
    m.buildSoa();

    std::vector<double> w(d, 0.25);
    w[4] = -2.0;
    std::vector<double> ref(m.rows(), 0.0);
    ml::kernelsFor(simd::Target::Scalar)
        .linearMargin(m, w.data(), 0.5, ref.data());
    forEachVectorTarget([&](simd::Target target) {
        std::vector<double> got = ml::scoreSpan(m);
        ml::kernels().linearMargin(m, w.data(), 0.5, got.data());
        got.resize(m.rows());
        ASSERT_EQ(got.size(), ref.size());
        for (std::size_t r = 0; r < ref.size(); ++r) {
            if (std::isnan(ref[r])) {
                EXPECT_TRUE(std::isnan(got[r]))
                    << simd::targetName(target) << " row " << r;
            } else {
                EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r]),
                          std::bit_cast<std::uint64_t>(ref[r]))
                    << simd::targetName(target) << " row " << r;
            }
        }
    });
}

TEST(Kernels, StandardizeRowBitEqualAcrossTargets)
{
    const std::size_t d = 29;  // odd: exercises every scalar tail
    Rng rng(7);
    ml::Standardizer std_;
    std_.mean.resize(d);
    std_.scale.resize(d);
    for (std::size_t j = 0; j < d; ++j) {
        std_.mean[j] = rng.uniform(-5.0, 5.0);
        std_.scale[j] = rng.uniform(0.1, 4.0);
    }
    std::vector<double> raw(d);
    for (double &x : raw)
        x = rng.uniform(-10.0, 10.0);

    const std::vector<double> ref = std_.apply(raw);
    forEachVectorTarget([&](simd::Target target) {
        std::vector<double> row = raw;
        std_.applyInPlace(row.data(), row.size());
        expectBitEqual(row, ref, simd::targetName(target));
    });
}

TEST(Kernels, StandardizerPanicsOnDimMismatch)
{
    ml::Standardizer std_;
    std_.mean = {0.0, 0.0};
    std_.scale = {1.0, 1.0};
    double one = 1.0;
    EXPECT_DEATH(std_.applyInPlace(&one, 1), "dim mismatch");
}

TEST(Kernels, RateConversionsExactForLargeU32)
{
    // Values above 2^31 catch a signed-convert shortcut; the vector
    // kernels must convert any uint32 exactly.
    const std::vector<std::uint32_t> counts = {
        0u, 1u, 2147483647u, 2147483648u, 4294967295u, 13u, 999999937u,
        3000000019u, 7u, 42u, 2863311530u};
    const double insts = 100003.0;

    std::vector<double> ref(counts.size(), 0.0);
    std::vector<double> refAcc(counts.size(), 0.125);
    const ml::KernelTable &scalar =
        ml::kernelsFor(simd::Target::Scalar);
    scalar.rateConvertU32(counts.data(), counts.size(), insts,
                          ref.data());
    scalar.rateAccumulateU32(counts.data(), counts.size(), insts,
                             refAcc.data());

    forEachVectorTarget([&](simd::Target target) {
        std::vector<double> got(counts.size(), 0.0);
        std::vector<double> gotAcc(counts.size(), 0.125);
        ml::kernels().rateConvertU32(counts.data(), counts.size(),
                                     insts, got.data());
        ml::kernels().rateAccumulateU32(counts.data(), counts.size(),
                                        insts, gotAcc.data());
        expectBitEqual(got, ref, simd::targetName(target));
        expectBitEqual(gotAcc, refAcc, simd::targetName(target));
    });
}

/** Train one small model per family on a shared synthetic dataset. */
std::vector<std::unique_ptr<ml::Classifier>>
trainedFamilies(std::size_t d)
{
    Rng rng(1234);
    ml::Dataset data;
    for (std::size_t i = 0; i < 400; ++i) {
        std::vector<double> x(d);
        const int label = i % 2 == 0 ? 1 : 0;
        for (std::size_t j = 0; j < d; ++j) {
            x[j] = rng.gaussian(label == 1 ? 0.4 : -0.4, 1.0);
        }
        data.add(std::move(x), label);
    }

    std::vector<std::unique_ptr<ml::Classifier>> out;
    ml::LrConfig lr;
    lr.epochs = 3;
    out.push_back(std::make_unique<ml::LogisticRegression>(lr));
    ml::SvmConfig svm;
    svm.epochs = 3;
    out.push_back(std::make_unique<ml::LinearSvm>(svm));
    ml::MlpConfig mlp;
    mlp.epochs = 2;
    mlp.hidden = 6;
    out.push_back(std::make_unique<ml::Mlp>(mlp));
    out.push_back(std::make_unique<ml::DecisionTree>());
    ml::ForestConfig forest;
    forest.trees = 7;
    out.push_back(std::make_unique<ml::RandomForest>(forest));

    for (auto &clf : out) {
        Rng trainRng(99);
        clf->train(data, trainRng);
    }
    return out;
}

TEST(Families, TenThousandWindowsBitEqualAcrossTargets)
{
    const std::size_t d = 24;
    const auto families = trainedFamilies(d);
    const features::FeatureMatrix big = randomMatrix(10000, d, 2024);

    for (const auto &clf : families) {
        TargetGuard guard;
        simd::setActiveTarget(simd::Target::Scalar);
        const std::vector<double> ref = clf->scoreBatch(big);
        forEachVectorTarget([&](simd::Target target) {
            const std::vector<double> got = clf->scoreBatch(big);
            expectBitEqual(got, ref,
                           (clf->name() + std::string("/") +
                            simd::targetName(target))
                               .c_str());
        });
        // A row scores the same alone as inside the 10k batch.
        for (std::size_t r = 0; r < 32; ++r) {
            EXPECT_EQ(ref[r], clf->score(big.rowVector(r)))
                << clf->name() << " row " << r;
        }
    }
}

TEST(Families, RaggedTailsBitEqualAcrossTargets)
{
    const std::size_t d = 16;
    const auto families = trainedFamilies(d);
    for (std::size_t rows : kRaggedSizes) {
        const features::FeatureMatrix m =
            randomMatrix(rows, d, 777 + rows);
        for (const auto &clf : families) {
            TargetGuard guard;
            simd::setActiveTarget(simd::Target::Scalar);
            const std::vector<double> ref = clf->scoreBatch(m);
            forEachVectorTarget([&](simd::Target target) {
                expectBitEqual(clf->scoreBatch(m), ref,
                               simd::targetName(target));
            });
        }
    }
}

TEST(Families, MatrixWithoutSoaFallsBackBitEqual)
{
    const std::size_t d = 16;
    const auto families = trainedFamilies(d);
    const features::FeatureMatrix m =
        randomMatrix(65, d, 31, /*soa=*/false);
    for (const auto &clf : families) {
        TargetGuard guard;
        simd::setActiveTarget(simd::Target::Scalar);
        const std::vector<double> ref = clf->scoreBatch(m);
        forEachVectorTarget([&](simd::Target target) {
            expectBitEqual(clf->scoreBatch(m), ref,
                           simd::targetName(target));
        });
    }
}

/**
 * The leaf @p row reaches by walking @p nodes from the root, reading
 * tree input j as row[sel[j]] (row[j] when @p sel is null): `x <= t`
 * goes left, so NaN goes right.
 */
double
walkNodes(const std::vector<ml::DecisionTree::Node> &nodes,
          const std::vector<std::size_t> *sel, const double *row)
{
    std::size_t n = 0;
    while (!nodes[n].leaf) {
        const ml::DecisionTree::Node &node = nodes[n];
        const double x =
            row[sel == nullptr ? node.feature : (*sel)[node.feature]];
        n = static_cast<std::size_t>(x <= node.threshold ? node.left
                                                         : node.right);
    }
    return nodes[n].value;
}

/** Mean leaf value @p row reaches over @p forest's trees. */
double
walkForest(const ml::RandomForest &forest, const double *row)
{
    double total = 0.0;
    for (std::size_t t = 0; t < forest.treeCount(); ++t) {
        total += walkNodes(forest.trees()[t].nodes(),
                           &forest.featureSelections()[t], row);
    }
    return total / static_cast<double>(forest.treeCount());
}

TEST(Families, TreeScoresMatchNodeWalksOnEveryTarget)
{
    // The flattened kernel layouts (and, for forests, the split remap
    // through each tree's feature selection) against walks over the
    // grown nodes, on 1200 rows where about one entry in twelve is
    // NaN, +Inf or -Inf.
    const std::size_t d = 9;
    Rng data_rng(34);
    ml::Dataset data;
    for (std::size_t i = 0; i < 800; ++i) {
        std::vector<double> x(d);
        for (double &v : x)
            v = data_rng.uniform(-1.0, 1.0);
        // An oblique boundary, so the trees grow deep.
        data.add(x, x[0] + x[1] * x[2] - 0.5 * x[8] > 0.0 ? 1 : 0);
    }
    ml::DecisionTree tree;
    Rng tree_rng(11);
    tree.train(data, tree_rng);
    ASSERT_GT(tree.depth(), 3u);
    // Depth 6 caps a tree at 64 leaves, so the avx2 forest kernel
    // takes the bitvector form; trees split down to single samples
    // outgrow it and the forest takes the scalar walk.
    ml::ForestConfig shallow;
    shallow.trees = 9;
    shallow.tree.maxDepth = 6;
    ml::ForestConfig deep;
    deep.trees = 5;
    deep.tree.maxDepth = 10;
    deep.tree.minSamplesLeaf = 1;
    deep.tree.minSamplesSplit = 2;
    std::vector<ml::RandomForest> forests = {ml::RandomForest(shallow),
                                             ml::RandomForest(deep)};
    for (ml::RandomForest &forest : forests) {
        Rng forest_rng(12);
        forest.train(data, forest_rng);
        ASSERT_LT(forest.featureSelections().front().size(), d);
    }
    std::size_t deep_leaves = 0;
    for (const ml::DecisionTree &t : forests[1].trees()) {
        std::size_t leaves = 0;
        for (const ml::DecisionTree::Node &node : t.nodes())
            leaves += node.leaf ? 1 : 0;
        deep_leaves = std::max(deep_leaves, leaves);
    }
    ASSERT_GT(deep_leaves, 64u);

    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
    features::FeatureMatrix x = randomMatrix(1200, d, 44, /*soa=*/false);
    Rng special_rng(45);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t j = 0; j < d; ++j) {
            if (special_rng.below(12) == 0)
                x.row(r)[j] = specials[special_rng.below(3)];
        }
    }
    x.buildSoa();

    std::vector<double> tree_ref(x.rows());
    std::vector<std::vector<double>> forest_ref(
        forests.size(), std::vector<double>(x.rows()));
    for (std::size_t r = 0; r < x.rows(); ++r) {
        tree_ref[r] = walkNodes(tree.nodes(), nullptr, x.row(r));
        for (std::size_t f = 0; f < forests.size(); ++f)
            forest_ref[f][r] = walkForest(forests[f], x.row(r));
    }
    TargetGuard guard;
    for (simd::Target target : simd::supportedTargets()) {
        simd::setActiveTarget(target);
        expectBitEqual(tree.scoreBatch(x), tree_ref,
                       simd::targetName(target));
        for (std::size_t f = 0; f < forests.size(); ++f) {
            expectBitEqual(forests[f].scoreBatch(x), forest_ref[f],
                           simd::targetName(target));
        }
    }
}

/** Synthetic raw windows, the last one a truncated tail. */
std::vector<features::RawWindow>
syntheticWindows(std::size_t n, std::uint32_t period,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<features::RawWindow> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        features::RawWindow &win = out[i];
        const bool tail = i + 1 == n;
        // A truncated tail window has fewer instructions than the
        // collection period; counts scale with what it saw.
        win.instCount = tail ? period / 3 : period;
        win.truncated = tail;
        std::uint64_t remaining = win.instCount;
        for (std::size_t op = 0; op < win.opcodeCounts.size(); ++op) {
            const auto take = static_cast<std::uint32_t>(
                rng.below(remaining / 4 + 1));
            win.opcodeCounts[op] = take;
            remaining -= std::min<std::uint64_t>(take, remaining);
        }
        for (auto &bin : win.memDeltaBins)
            bin = static_cast<std::uint32_t>(
                rng.below(win.instCount / 2 + 1));
        for (auto &event : win.events)
            event = rng.below(win.instCount + 1);
    }
    return out;
}

TEST(Hmd, TruncatedTailWindowsScoreBitEqualAcrossTargets)
{
    core::HmdConfig config;
    config.algorithm = "LR";
    config.specs.resize(3);
    config.specs[0].kind = features::FeatureKind::Instructions;
    config.specs[1].kind = features::FeatureKind::Memory;
    config.specs[2].kind = features::FeatureKind::Architectural;
    for (auto &spec : config.specs)
        spec.period = 10000;

    const std::vector<features::RawWindow> malware =
        syntheticWindows(40, 10000, 3);
    const std::vector<features::RawWindow> benign =
        syntheticWindows(40, 10000, 4);
    std::vector<const features::RawWindow *> windows;
    std::vector<int> labels;
    for (const auto &win : malware) {
        windows.push_back(&win);
        labels.push_back(1);
    }
    for (const auto &win : benign) {
        windows.push_back(&win);
        labels.push_back(0);
    }

    TargetGuard guard;
    simd::setActiveTarget(simd::Target::Scalar);
    core::Hmd hmd(config);
    hmd.train(windows, labels);

    // Batch includes truncated tails (one per class); every target's
    // batch scores must equal each window scored alone, bit for bit.
    std::vector<double> alone;
    alone.reserve(windows.size());
    for (const auto *win : windows)
        alone.push_back(hmd.windowScore(*win));

    for (simd::Target target : simd::supportedTargets()) {
        simd::setActiveTarget(target);
        expectBitEqual(hmd.scoreWindows(windows), alone,
                       simd::targetName(target));
    }
}

} // namespace

/**
 * @file
 * Scoring-kernel tests against independent references: the shared
 * kernels against in-test loops, tree and forest scores against walks
 * over the grown nodes, count-to-rate features against plain divides,
 * and every family's batch scores against each row scored alone (the
 * determinism contract of DESIGN.md section 14) — on dense batches,
 * ragged sizes, truncated tail windows and NaN/Inf inputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/hmd.hh"
#include "features/matrix.hh"
#include "features/spec.hh"
#include "features/window.hh"
#include "ml/decision_tree.hh"
#include "ml/kernels.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "ml/svm.hh"
#include "support/rng.hh"

namespace
{

using namespace rhmd;

/** Batch sizes around the canonical 64-row batch: single row, odd,
 *  one below/at/above 64. */
const std::vector<std::size_t> kRaggedSizes = {1, 3, 63, 64, 65};

/** Row @p r of @p m as a vector: the input of a one-row score(). */
std::vector<double>
rowOf(const features::FeatureMatrix &m, std::size_t r)
{
    return std::vector<double>(m.row(r), m.row(r) + m.cols());
}

features::FeatureMatrix
randomMatrix(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    features::FeatureMatrix m(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        double *row = m.row(r);
        for (std::size_t j = 0; j < cols; ++j)
            row[j] = rng.uniform(-3.0, 3.0);
    }
    return m;
}

void
expectBitEqual(const std::vector<double> &got,
               const std::vector<double> &want, const std::string &label)
{
    ASSERT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got[i]),
                  std::bit_cast<std::uint64_t>(want[i]))
            << label << " row " << i << ": " << got[i]
            << " != " << want[i];
    }
}

TEST(Kernels, NanAndInfPropagateIdentically)
{
    const std::size_t d = 9;
    features::FeatureMatrix m = randomMatrix(66, d, 5);
    m.row(1)[3] = std::numeric_limits<double>::quiet_NaN();
    m.row(64)[0] = std::numeric_limits<double>::infinity();
    m.row(65)[8] = -std::numeric_limits<double>::infinity();

    std::vector<double> w(d, 0.25);
    w[4] = -2.0;
    const double bias = 0.5;
    std::vector<double> got(m.rows());
    ml::linearMargin(m, w.data(), bias, got.data());
    for (std::size_t r = 0; r < m.rows(); ++r) {
        // The support::dot order: ascending j from +0.0, bias last.
        double want = 0.0;
        for (std::size_t j = 0; j < d; ++j)
            want += w[j] * m.row(r)[j];
        want += bias;
        if (std::isnan(want)) {
            EXPECT_TRUE(std::isnan(got[r])) << "row " << r;
        } else {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(got[r]),
                      std::bit_cast<std::uint64_t>(want))
                << "row " << r;
        }
    }
    EXPECT_TRUE(std::isnan(got[1]));
    EXPECT_EQ(got[64], std::numeric_limits<double>::infinity());
    EXPECT_EQ(got[65], -std::numeric_limits<double>::infinity());
}

TEST(Kernels, StandardizerApplyInPlaceMatchesFormula)
{
    const std::size_t d = 29;
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

    std::vector<double> want(d);
    for (std::size_t j = 0; j < d; ++j)
        want[j] = (raw[j] - std_.mean[j]) / std_.scale[j];
    std::vector<double> in_place = raw;
    std_.applyInPlace(in_place.data(), in_place.size());
    expectBitEqual(in_place, want, "applyInPlace");
}

TEST(Kernels, StandardizerPanicsOnDimMismatch)
{
    ml::Standardizer std_;
    std_.mean = {0.0, 0.0};
    std_.scale = {1.0, 1.0};
    double one = 1.0;
    EXPECT_DEATH(std_.applyInPlace(&one, 1), "dim mismatch");
}

TEST(Features, RateConversionsExactForLargeU32)
{
    // Counts at and above 2^31 catch a signed-convert shortcut: every
    // rate must be double(count) / insts, bit for bit.
    const std::vector<std::uint32_t> large = {
        2147483647u, 2147483648u, 4294967295u, 3000000019u,
        2863311530u, 999999937u,  13u,         0u};
    features::RawWindow win;
    win.instCount = 100003;
    for (std::size_t k = 0; k < win.memDeltaBins.size(); ++k)
        win.memDeltaBins[k] = large[k % large.size()];
    for (std::size_t op = 0; op < win.opcodeCounts.size(); ++op)
        win.opcodeCounts[op] = large[(op + 3) % large.size()];
    for (std::size_t e = 0; e < win.events.size(); ++e)
        win.events[e] = std::uint64_t{large[(e + 5) % large.size()]} << 3;

    std::vector<features::FeatureSpec> specs(3);
    specs[0].kind = features::FeatureKind::Instructions;
    specs[0].opcodeSel = {0, 1, 2, 3, 4, 5, 6, 7};
    specs[1].kind = features::FeatureKind::Memory;
    specs[2].kind = features::FeatureKind::Architectural;
    std::vector<double> got(features::combinedDim(specs));
    features::fillCombined(specs, win, got.data());

    const double insts = 100003.0;
    std::vector<double> want;
    for (std::size_t op : specs[0].opcodeSel)
        want.push_back(static_cast<double>(win.opcodeCounts[op]) / insts);
    for (std::uint32_t bin : win.memDeltaBins)
        want.push_back(static_cast<double>(bin) / insts);
    for (std::uint64_t event : win.events)
        want.push_back(static_cast<double>(event) / insts);
    expectBitEqual(got, want, "fillCombined");
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

TEST(Families, RowScoresAloneAsInTenThousandRowBatch)
{
    const std::size_t d = 24;
    const auto families = trainedFamilies(d);
    const features::FeatureMatrix big = randomMatrix(10000, d, 2024);

    for (const auto &clf : families) {
        const std::vector<double> batch = clf->scoreBatch(big);
        ASSERT_EQ(batch.size(), big.rows());
        for (std::size_t r = 0; r < big.rows(); r += 97) {
            EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[r]),
                      std::bit_cast<std::uint64_t>(
                          clf->score(rowOf(big, r))))
                << clf->name() << " row " << r;
        }
    }
}

TEST(Families, RaggedBatchesScoreAsRowsAlone)
{
    const std::size_t d = 16;
    const auto families = trainedFamilies(d);
    for (std::size_t rows : kRaggedSizes) {
        const features::FeatureMatrix m =
            randomMatrix(rows, d, 777 + rows);
        for (const auto &clf : families) {
            std::vector<double> alone;
            for (std::size_t r = 0; r < rows; ++r)
                alone.push_back(clf->score(rowOf(m, r)));
            expectBitEqual(clf->scoreBatch(m), alone,
                           clf->name() + " rows=" + std::to_string(rows));
        }
    }
}

/**
 * The leaf @p row reaches by walking @p nodes from the root: `x <= t`
 * goes left, so NaN goes right.
 */
double
walkNodes(const std::vector<ml::DecisionTree::Node> &nodes,
          const double *row)
{
    std::size_t n = 0;
    while (!nodes[n].leaf) {
        const ml::DecisionTree::Node &node = nodes[n];
        n = static_cast<std::size_t>(row[node.feature] <= node.threshold
                                         ? node.left
                                         : node.right);
    }
    return nodes[n].value;
}

/** Mean leaf value @p row reaches over @p forest's trees. */
double
walkForest(const ml::RandomForest &forest, const double *row)
{
    double total = 0.0;
    for (const ml::DecisionTree &tree : forest.trees())
        total += walkNodes(tree.nodes(), row);
    return total / static_cast<double>(forest.treeCount());
}

TEST(Families, TreeScoresMatchNodeWalks)
{
    // Batch scoring against walks over the grown nodes, on 1200 rows
    // where about one entry in twelve is NaN, +Inf or -Inf.
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
    // A shallow forest and one whose trees split down to single
    // samples.
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
        // Each tree grew on 6 of the 9 features; its splits were
        // rewritten to full-width indices, so some read past 5.
        std::size_t widest = 0;
        for (const ml::DecisionTree &t : forest.trees()) {
            for (const ml::DecisionTree::Node &node : t.nodes()) {
                if (!node.leaf)
                    widest = std::max(widest, node.feature);
            }
        }
        ASSERT_GE(widest, 6u);
        ASSERT_LT(widest, d);
    }

    const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()};
    features::FeatureMatrix x = randomMatrix(1200, d, 44);
    Rng special_rng(45);
    for (std::size_t r = 0; r < x.rows(); ++r) {
        for (std::size_t j = 0; j < d; ++j) {
            if (special_rng.below(12) == 0)
                x.row(r)[j] = specials[special_rng.below(3)];
        }
    }

    std::vector<double> tree_ref(x.rows());
    std::vector<std::vector<double>> forest_ref(
        forests.size(), std::vector<double>(x.rows()));
    for (std::size_t r = 0; r < x.rows(); ++r) {
        tree_ref[r] = walkNodes(tree.nodes(), x.row(r));
        for (std::size_t f = 0; f < forests.size(); ++f)
            forest_ref[f][r] = walkForest(forests[f], x.row(r));
    }
    expectBitEqual(tree.scoreBatch(x), tree_ref, "DT");
    for (std::size_t f = 0; f < forests.size(); ++f) {
        expectBitEqual(forests[f].scoreBatch(x), forest_ref[f],
                       f == 0 ? "shallow RF" : "deep RF");
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

TEST(Hmd, TruncatedTailWindowsScoreInBatchAsAlone)
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

    core::Hmd hmd(config);
    hmd.train(windows, labels);

    // The batch includes truncated tails (one per class); its scores
    // must equal each window scored alone, bit for bit.
    std::vector<double> alone;
    alone.reserve(windows.size());
    for (const auto *win : windows)
        alone.push_back(hmd.windowScore(*win));
    expectBitEqual(hmd.scoreWindows(windows), alone, "scoreWindows");
}

} // namespace

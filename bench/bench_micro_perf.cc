/**
 * @file
 * Micro-benchmarks of the scoring kernels: per-family batch-64
 * scoring throughput, plus the deterministic score/decision hashes
 * the CI bench sweep byte-diffs across thread counts.
 *
 * The emitted tables carry only Deterministic-domain values (FNV-1a
 * hashes of score bits and decision streams), so any drift in a
 * family's scores or in the Hmd window path fails the determinism
 * gate. Throughput is printed but never emitted into the tables:
 * wall time is not deterministic and would break the byte diff.
 */

#include "bench_common.hh"

#include <bit>
#include <chrono>
#include <memory>
#include <vector>

#include "core/hmd.hh"
#include "features/matrix.hh"
#include "features/window.hh"
#include "ml/decision_tree.hh"
#include "ml/logistic_regression.hh"
#include "ml/mlp.hh"
#include "ml/random_forest.hh"
#include "ml/svm.hh"
#include "support/rng.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::bench;

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/** FNV-1a over the exact bit patterns of a score vector. */
std::uint64_t
hashScores(std::uint64_t h, const std::vector<double> &scores)
{
    for (double s : scores) {
        h ^= std::bit_cast<std::uint64_t>(s);
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over a decision stream. */
std::uint64_t
hashDecisions(std::uint64_t h, const std::vector<int> &decisions)
{
    for (int d : decisions) {
        h ^= static_cast<std::uint64_t>(d + 1);
        h *= kFnvPrime;
    }
    return h;
}

std::string
hashHex(std::uint64_t h)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
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

/** One trained model per scoring family, on one synthetic dataset. */
std::vector<std::unique_ptr<ml::Classifier>>
trainedFamilies(std::size_t d)
{
    Rng rng(4242);
    ml::Dataset data;
    for (std::size_t i = 0; i < 600; ++i) {
        std::vector<double> x(d);
        const int label = i % 2 == 0 ? 1 : 0;
        for (std::size_t j = 0; j < d; ++j)
            x[j] = rng.gaussian(label == 1 ? 0.35 : -0.35, 1.0);
        data.add(std::move(x), label);
    }

    std::vector<std::unique_ptr<ml::Classifier>> out;
    ml::LrConfig lr;
    lr.epochs = 4;
    out.push_back(std::make_unique<ml::LogisticRegression>(lr));
    ml::SvmConfig svm;
    svm.epochs = 4;
    out.push_back(std::make_unique<ml::LinearSvm>(svm));
    ml::MlpConfig mlp;
    mlp.epochs = 2;
    mlp.hidden = 16;
    out.push_back(std::make_unique<ml::Mlp>(mlp));
    out.push_back(std::make_unique<ml::DecisionTree>());
    ml::ForestConfig forest;
    forest.trees = 30;
    out.push_back(std::make_unique<ml::RandomForest>(forest));

    for (auto &clf : out) {
        Rng trainRng(7);
        clf->train(data, trainRng);
    }
    return out;
}

/** Synthetic raw windows; the last one is a truncated tail. */
std::vector<features::RawWindow>
syntheticWindows(std::size_t n, std::uint32_t period,
                 std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<features::RawWindow> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        features::RawWindow &win = out[i];
        const bool tail = i + 1 == n;
        win.instCount = tail ? period / 3 : period;
        win.truncated = tail;
        for (auto &count : win.opcodeCounts)
            count = static_cast<std::uint32_t>(
                rng.below(win.instCount / 8 + 1));
        for (auto &bin : win.memDeltaBins)
            bin = static_cast<std::uint32_t>(
                rng.below(win.instCount / 2 + 1));
        for (auto &event : win.events)
            event = rng.below(win.instCount + 1);
    }
    return out;
}

/**
 * Batch-64 scoring throughput in rows/second: the batch shape the
 * detection service's canonical 64-request batch plan produces.
 */
double
rowsPerSecond(const ml::Classifier &clf,
              const features::FeatureMatrix &batch, double budget)
{
    using clock = std::chrono::steady_clock;
    (void)clf.scoreBatch(batch);  // warm caches
    std::size_t reps = 0;
    const clock::time_point start = clock::now();
    double elapsed = 0.0;
    do {
        for (int i = 0; i < 32; ++i)
            (void)clf.scoreBatch(batch);
        reps += 32;
        elapsed =
            std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < budget);
    return static_cast<double>(batch.rows() * reps) / elapsed;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Scoring kernel micro-benchmarks",
           "the scoring substrate behind Figs. 2/13/16 and the serve "
           "batch path");

    const std::size_t d = 48;
    const std::size_t rows = smoke() ? 2000 : 10000;
    const auto families = trainedFamilies(d);
    const features::FeatureMatrix big = randomMatrix(rows, d, 20171014);

    // ---- Deterministic score/decision hashes (emitted) -------------
    std::printf("\nscoring determinism\n");
    Table det({"family", "rows", "score_hash", "decision_hash"});
    for (const auto &clf : families) {
        const std::vector<double> scores = clf->scoreBatch(big);
        std::vector<int> decisions;
        decisions.reserve(scores.size());
        for (double s : scores)
            decisions.push_back(s >= 0.5 ? 1 : 0);
        det.addRow({clf->name(), std::to_string(rows),
                    hashHex(hashScores(kFnvOffset, scores)),
                    hashHex(hashDecisions(kFnvOffset, decisions))});
    }
    emitTable(det);

    // ---- Hmd window path incl. a truncated tail (emitted) ----------
    core::HmdConfig hmd_config;
    hmd_config.algorithm = "LR";
    hmd_config.specs.resize(3);
    hmd_config.specs[0].kind = features::FeatureKind::Instructions;
    hmd_config.specs[1].kind = features::FeatureKind::Memory;
    hmd_config.specs[2].kind = features::FeatureKind::Architectural;
    for (auto &spec : hmd_config.specs)
        spec.period = 10000;

    const std::vector<features::RawWindow> malware =
        syntheticWindows(smoke() ? 60 : 200, 10000, 3);
    const std::vector<features::RawWindow> benign =
        syntheticWindows(smoke() ? 60 : 200, 10000, 4);
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
    core::Hmd hmd(hmd_config);
    hmd.train(windows, labels);

    const std::vector<double> window_scores = hmd.scoreWindows(windows);
    std::vector<int> window_decisions;
    window_decisions.reserve(window_scores.size());
    for (double s : window_scores)
        window_decisions.push_back(s >= hmd.threshold() ? 1 : 0);

    std::printf("\nwindow-path determinism (includes truncated tails)\n");
    Table hmd_table({"path", "windows", "score_hash", "decision_hash"});
    hmd_table.addRow(
        {"hmd_scoreWindows", std::to_string(windows.size()),
         hashHex(hashScores(kFnvOffset, window_scores)),
         hashHex(hashDecisions(kFnvOffset, window_decisions))});
    emitTable(hmd_table);

    // ---- Batch-64 throughput (printed only) -------------------------
    const features::FeatureMatrix batch64 = randomMatrix(64, d, 7777);
    const double budget = smoke() ? 0.05 : 0.15;
    std::printf("\nbatch-64 scoring throughput (timing; deliberately "
                "not in the deterministic tables)\n");
    Table timing({"family", "scalar_rows_per_s"});
    for (const auto &clf : families) {
        timing.addRow({clf->name(),
                       Table::cell(rowsPerSecond(*clf, batch64, budget),
                                   0)});
    }
    timing.print(std::cout);

    return bench::finish();
}

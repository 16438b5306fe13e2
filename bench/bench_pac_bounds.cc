/**
 * @file
 * Section 8 / Theorem 1: the PAC bounds on the attacker's
 * reverse-engineering error against a randomized pool — the
 * disagreement matrix, the per-detector base errors, the bound
 * interval, and the measured error of an actual NN attacker. The
 * paper reports ~25% measured attacker error for its six-detector
 * pool.
 */

#include "bench_common.hh"

#include "core/pac.hh"

using namespace rhmd;
using namespace rhmd::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("PAC-learnability bounds for randomized detection",
           "Sec. 8, Theorem 1 (six-detector pool)");

    const core::Experiment exp =
        core::Experiment::build(standardConfig());

    auto pool = core::buildRhmd("LR", poolSpecs(3, 2), exp.corpus(),
                                exp.split().victimTrain, 16, 71);
    const core::PacReport report = core::computePac(
        *pool, exp.corpus(), exp.split().attackerTest);

    std::printf("base detectors and their ground-truth error e(h_i):\n");
    Table bases({"i", "detector", "e(h_i)"});
    for (std::size_t i = 0; i < pool->poolSize(); ++i) {
        bases.addRow({std::to_string(i),
                      pool->detectors()[i]->describe(),
                      Table::percent(report.baseErrors[i])});
    }
    emitTable(bases);

    std::printf("\npairwise disagreement Delta_ij:\n");
    std::vector<std::string> headers{"i\\j"};
    for (std::size_t j = 0; j < pool->poolSize(); ++j)
        headers.push_back(std::to_string(j));
    Table delta(headers);
    for (std::size_t i = 0; i < pool->poolSize(); ++i) {
        std::vector<std::string> row{std::to_string(i)};
        for (std::size_t j = 0; j < pool->poolSize(); ++j)
            row.push_back(Table::percent(report.disagreement[i][j]));
        delta.addRow(row);
    }
    emitTable(delta);

    // An actual attacker, for comparison against the bounds.
    const auto proxy = core::buildProxy(
        *pool, exp.corpus(), exp.split().attackerTrain,
        proxyConfig("NN", features::FeatureKind::Instructions, 10000));
    const double agreement = core::proxyAgreement(
        *pool, *proxy, exp.corpus(), exp.split().attackerTest);

    std::printf("\nTheorem-1 quantities:\n");
    Table bounds({"quantity", "value"});
    bounds.addRow({"baseline pool error  sum p_i e(h_i)",
                   Table::percent(report.baselinePoolError)});
    bounds.addRow({"lower bound  min_i sum_{j!=i} p_j Delta_ij",
                   Table::percent(report.lowerBound)});
    bounds.addRow({"upper bound  2 max_i e(h_i)",
                   Table::percent(report.upperBound)});
    bounds.addRow({"measured NN-attacker error (1 - agreement)",
                   Table::percent(1.0 - agreement)});
    emitTable(bounds);

    std::printf("\nShape to match the paper: the measured attacker "
                "error sits above the\nweighted-disagreement lower "
                "bound (the paper measured ~25%% for its\n"
                "six-detector pool).\n");
    return bench::finish();
}

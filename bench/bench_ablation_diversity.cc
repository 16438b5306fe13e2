/**
 * @file
 * Ablation (beyond the paper's figures, quantifying its Sec. 7/8
 * claim): resilience as a function of pool size. For pools of one to
 * six base detectors we report the pool's own accuracy cost, the
 * best attacker's agreement, and the evasion success at a fixed
 * injection budget.
 */

#include "bench_common.hh"

#include "core/pac.hh"

using namespace rhmd;
using namespace rhmd::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Ablation: resilience vs pool size and diversity",
           "quantifies 'resilience increases with the number and "
           "diversity of detectors'");

    const core::Experiment exp =
        core::Experiment::build(standardConfig());
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const auto test_ben = exp.benignOf(exp.split().attackerTest);

    // Pool grows one detector at a time: features first, then the
    // same features at the second period.
    const std::vector<features::FeatureSpec> all_specs = poolSpecs(3, 2);

    Table table({"pool size", "sens", "FPR", "attacker agreement",
                 "mean disagreement", "detect evasive (k=5)"});
    for (std::size_t n = 1; n <= all_specs.size(); ++n) {
        const std::vector<features::FeatureSpec> specs(
            all_specs.begin(), all_specs.begin() + n);
        auto pool = core::buildRhmd("LR", specs, exp.corpus(),
                                    exp.split().victimTrain, 16,
                                    80 + n);

        const double sens = exp.detectionRateOn(*pool, test_mal);
        const double fpr = exp.detectionRateOn(*pool, test_ben);

        const auto proxy = core::buildProxy(
            *pool, exp.corpus(), exp.split().attackerTrain,
            proxyConfig("NN", features::FeatureKind::Instructions,
                        10000));
        const double agreement = core::proxyAgreement(
            *pool, *proxy, exp.corpus(), exp.split().attackerTest);

        const core::PacReport report = core::computePac(
            *pool, exp.corpus(), exp.split().attackerTest);
        double mean_delta = 0.0;
        if (n > 1) {
            for (std::size_t i = 0; i < n; ++i)
                for (std::size_t j = 0; j < n; ++j)
                    mean_delta += report.disagreement[i][j];
            mean_delta /= static_cast<double>(n * (n - 1));
        }

        core::EvasionPlan plan;
        plan.strategy = core::EvasionStrategy::LeastWeight;
        plan.count = 5;
        const auto evasive =
            exp.extractEvasive(test_mal, plan, proxy.get());
        const double evasive_detect =
            core::Experiment::detectionRate(*pool, evasive);

        table.addRow({std::to_string(n), Table::percent(sens),
                      Table::percent(fpr), Table::percent(agreement),
                      Table::percent(mean_delta),
                      Table::percent(evasive_detect)});
    }
    emitTable(table);

    std::printf("\nExpected trend: attacker agreement falls and "
                "evasive-malware detection rises\nwith pool size, at "
                "a modest cost in baseline accuracy (Theorem 1's "
                "trade-off).\n");
    return bench::finish();
}

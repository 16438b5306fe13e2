/**
 * @file
 * Ablation (paper Sec. 8's accuracy-vs-resilience trade-off): the
 * RHMD selection policy p controls how often each base detector
 * answers. Skewing p towards the most accurate detector raises the
 * pool's baseline accuracy but lowers the attacker's error floor
 * (sum_{j!=i} p_j Delta_ij), and vice versa.
 */

#include "bench_common.hh"

#include "core/pac.hh"

using namespace rhmd;
using namespace rhmd::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Ablation: the selection-policy trade-off",
           "Sec. 8: accuracy under no attack vs reverse-engineering "
           "difficulty");

    const core::Experiment exp =
        core::Experiment::build(standardConfig());
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const auto test_ben = exp.benignOf(exp.split().attackerTest);

    const std::vector<features::FeatureSpec> specs = poolSpecs(3, 1);

    // Train the base detectors once; re-pool with different policies.
    struct Policy
    {
        const char *label;
        std::vector<double> p;
    };
    const Policy policies[] = {
        {"best only (deterministic)", {1.0, 0.0, 0.0}},
        {"skewed 70/20/10", {0.7, 0.2, 0.1}},
        {"skewed 50/30/20", {0.5, 0.3, 0.2}},
        {"uniform (paper)", {1.0 / 3, 1.0 / 3, 1.0 / 3}},
    };

    Table table({"policy", "sens", "FPR", "attacker agreement",
                 "Thm-1 lower bound"});
    for (const Policy &policy : policies) {
        std::vector<std::unique_ptr<core::Hmd>> detectors;
        std::uint64_t det_seed = 90;
        for (const auto &s : specs) {
            core::HmdConfig config;
            config.algorithm = "LR";
            config.specs = {s};
            config.seed = ++det_seed;
            auto det = std::make_unique<core::Hmd>(config);
            det->trainOnPrograms(exp.corpus(),
                                 exp.split().victimTrain);
            detectors.push_back(std::move(det));
        }
        core::Rhmd pool(std::move(detectors), policy.p, 97);

        const double sens = exp.detectionRateOn(pool, test_mal);
        const double fpr = exp.detectionRateOn(pool, test_ben);
        const auto proxy = core::buildProxy(
            pool, exp.corpus(), exp.split().attackerTrain,
            proxyConfig("NN", features::FeatureKind::Instructions,
                        10000));
        const double agreement = core::proxyAgreement(
            pool, *proxy, exp.corpus(), exp.split().attackerTest);
        const core::PacReport report = core::computePac(
            pool, exp.corpus(), exp.split().attackerTest);

        table.addRow({policy.label, Table::percent(sens),
                      Table::percent(fpr), Table::percent(agreement),
                      Table::percent(report.lowerBound)});
    }
    emitTable(table);

    std::printf("\nExpected trend: moving from deterministic to "
                "uniform switching lowers the\nattacker's agreement "
                "and raises the Theorem-1 floor, trading a little\n"
                "baseline accuracy for resilience.\n");
    return bench::finish();
}

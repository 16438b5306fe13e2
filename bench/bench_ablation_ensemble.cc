/**
 * @file
 * Ablation from the paper's related-work contrast: a deterministic
 * ensemble (Khasawneh et al., RAID 2015) over the same diverse base
 * detectors has *better* baseline accuracy than an RHMD — but it is
 * a fixed classifier, so it can be reverse-engineered and evaded,
 * while the RHMD cannot. ("Since ensemble classifiers are
 * deterministic, they can be reverse engineered and evaded.")
 */

#include "bench_common.hh"

#include "core/ensemble.hh"

using namespace rhmd;
using namespace rhmd::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Deterministic ensemble vs randomized pool",
           "Sec. 9.1's contrast with ensemble HMDs (RAID 2015)");

    const core::Experiment exp =
        core::Experiment::build(standardConfig());
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    const auto test_ben = exp.benignOf(exp.split().attackerTest);

    const std::vector<features::FeatureSpec> specs = poolSpecs(3, 1);
    auto ensemble = core::buildEnsemble("LR", specs, exp.corpus(),
                                        exp.split().victimTrain, 16,
                                        131);
    auto rhmd_pool = core::buildRhmd("LR", specs, exp.corpus(),
                                     exp.split().victimTrain, 16, 131);

    Table table({"detector", "sens", "FPR", "attacker agreement",
                 "detect evasive (k=5)"});
    struct Row
    {
        const char *label;
        core::Detector *detector;
    };
    for (const Row &row : {Row{"majority-vote ensemble",
                               ensemble.get()},
                           Row{"RHMD (uniform switching)",
                               rhmd_pool.get()}}) {
        const double sens = exp.detectionRateOn(*row.detector, test_mal);
        const double fpr = exp.detectionRateOn(*row.detector, test_ben);

        // A fair attacker: the combined (union-of-features) NN
        // hypothesis, which can represent the ensemble's vote.
        core::ProxyConfig pc;
        pc.algorithm = "NN";
        pc.specs = specs;
        const auto proxy = core::buildProxy(
            *row.detector, exp.corpus(), exp.split().attackerTrain,
            pc);
        const double agreement = core::proxyAgreement(
            *row.detector, *proxy, exp.corpus(),
            exp.split().attackerTest);

        core::EvasionPlan plan;
        plan.strategy = core::EvasionStrategy::LeastWeight;
        plan.count = 5;
        const auto evasive =
            exp.extractEvasive(test_mal, plan, proxy.get());
        const double evasive_detect =
            core::Experiment::detectionRate(*row.detector, evasive);

        table.addRow({row.label, Table::percent(sens),
                      Table::percent(fpr), Table::percent(agreement),
                      Table::percent(evasive_detect)});
    }
    emitTable(table);

    std::printf("\nExpected shape: the ensemble is at least as "
                "accurate but far easier to\nreverse-engineer "
                "(deterministic), and its evasive-malware detection "
                "suffers\naccordingly; the RHMD trades a little "
                "accuracy for resilience.\n");
    return bench::finish();
}

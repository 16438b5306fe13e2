/**
 * @file
 * Figure 14: reverse-engineering the RHMD — agreement of LR/DT/SVM
 * attackers (trying each base feature and the union of them) against
 * randomized pools of (a) two and (b) three single-period base
 * detectors.
 */

#include "bench_common.hh"

using namespace rhmd;
using namespace rhmd::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Reverse-engineering the RHMD (feature diversity)",
           "Fig. 14a (two-feature pool) and Fig. 14b (three-feature "
           "pool)");

    const core::Experiment exp =
        core::Experiment::build(standardConfig());

    {
        std::printf("\n(a) pool: {instructions, memory} @ 10k, LR "
                    "bases, uniform switching\n");
        auto pool = core::buildRhmd("LR", poolSpecs(2, 1), exp.corpus(),
                                    exp.split().victimTrain, 16, 41);
        attackPool(exp, *pool,
                   {features::FeatureKind::Memory,
                    features::FeatureKind::Instructions});
        emitRealizedSwitching(*pool);
    }
    {
        std::printf("\n(b) pool: {instructions, memory, architectural} "
                    "@ 10k\n");
        auto pool = core::buildRhmd("LR", poolSpecs(3, 1), exp.corpus(),
                                    exp.split().victimTrain, 16, 42);
        attackPool(exp, *pool,
                   {features::FeatureKind::Memory,
                    features::FeatureKind::Instructions,
                    features::FeatureKind::Architectural});
        emitRealizedSwitching(*pool);
    }
    emitQueryBudget();

    std::printf("\nShape to match the paper: agreement falls well "
                "below the deterministic case\n(~99%%, see "
                "bench_fig04) and falls further as the pool grows "
                "from two to three\ndetectors; the combined-feature "
                "attacker does not recover it.\n");
    return bench::finish();
}

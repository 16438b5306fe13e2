/**
 * @file
 * Figure 15: reverse-engineering the RHMD when the pool also
 * randomizes the collection period (5k and 10k) — pools of (a) four
 * (two features x two periods) and (b) six (three features x two
 * periods) base detectors.
 */

#include "bench_common.hh"

using namespace rhmd;
using namespace rhmd::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Reverse-engineering the RHMD (features and periods)",
           "Fig. 15a (2 features x 2 periods) and Fig. 15b "
           "(3 features x 2 periods)");

    const core::Experiment exp =
        core::Experiment::build(standardConfig());

    {
        std::printf("\n(a) pool of four: {instructions, memory} x "
                    "{5k, 10k}\n");
        auto pool = core::buildRhmd("LR", poolSpecs(2, 2), exp.corpus(),
                                    exp.split().victimTrain, 16, 51);
        attackPool(exp, *pool,
                   {features::FeatureKind::Memory,
                    features::FeatureKind::Instructions});
    }
    {
        std::printf("\n(b) pool of six: {instructions, memory, "
                    "architectural} x {5k, 10k}\n");
        auto pool = core::buildRhmd("LR", poolSpecs(3, 2), exp.corpus(),
                                    exp.split().victimTrain, 16, 52);
        attackPool(exp, *pool,
                   {features::FeatureKind::Memory,
                    features::FeatureKind::Instructions,
                    features::FeatureKind::Architectural});
    }
    emitQueryBudget();

    std::printf("\nShape to match the paper: adding period diversity "
                "on top of feature diversity\nmakes reverse-"
                "engineering harder still (compare with "
                "bench_fig14).\n");
    return bench::finish();
}

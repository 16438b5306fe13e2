/**
 * @file
 * Section 7's hardware cost result: the paper synthesizes the
 * three-feature, one-period RHMD onto the AO486 FPGA core and
 * measures +1.72% area and +0.78% power. This harness reproduces
 * that point with the analytic datapath model and extends it to the
 * other pool configurations and the NN datapath.
 */

#include "bench_common.hh"

#include "core/hardware_model.hh"

using namespace rhmd;
using namespace rhmd::bench;

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Hardware cost of the RHMD datapath",
           "Sec. 7: +1.72% area, +0.78% power for 3 features / 1 "
           "period on AO486");

    Table table({"configuration", "algorithm", "logic elements",
                 "weight SRAM (bits)", "power (mW)", "area overhead",
                 "power overhead"});

    struct Config
    {
        const char *label;
        std::size_t features;
        std::size_t periods;
        const char *algorithm;
    };
    const Config configs[] = {
        {"1 feature, 1 period", 1, 1, "LR"},
        {"2 features, 1 period", 2, 1, "LR"},
        {"3 features, 1 period (paper)", 3, 1, "LR"},
        {"3 features, 2 periods", 3, 2, "LR"},
        {"3 features, 3 periods", 3, 3, "LR"},
        {"3 features, 1 period", 3, 1, "NN"},
        {"3 features, 2 periods", 3, 2, "NN"},
    };

    for (const Config &config : configs) {
        const core::HwEstimate est = core::estimateHardware(
            poolSpecs(config.features, config.periods),
            config.algorithm);
        table.addRow({config.label, config.algorithm,
                      Table::cell(est.logicElements, 0),
                      Table::cell(est.sramBits, 0),
                      Table::cell(est.powerMw, 2),
                      Table::percent(est.areaOverheadPct / 100.0, 2),
                      Table::percent(est.powerOverheadPct / 100.0, 2)});
    }
    emitTable(table);

    std::printf("\nShape to match the paper: the 3-feature/1-period "
                "LR pool lands near +1.72%%\narea and +0.78%% power; "
                "extra periods only duplicate weight SRAM (the\n"
                "collection and evaluation logic is shared), so they "
                "are nearly free.\n");
    return bench::finish();
}

/**
 * @file
 * Fault-tolerance sweep: how does program-level detection degrade as
 * sensor faults intensify and base detectors fail?
 *
 * Beyond the paper: the paper deploys RHMD as always-on hardware
 * (Sec. 7) but evaluates it on clean feature streams. This harness
 * reads the attacker-test programs through a faulty sensor
 * (runtime::FaultInjector::sense) and serves the sensed streams
 * through serve::DetectionService under increasingly hostile fault
 * models — counter noise, dropped epochs, truncated windows, stuck
 * counters, transient read failures, and hard base-detector failures
 * (serve::ChaosConfig) — and reports the detection-rate degradation
 * curve plus the health monitor's quarantine behaviour. The headline
 * claim: the pool *degrades* (a bounded detection-rate loss) instead
 * of aborting.
 */

#include "bench_common.hh"

#include <sstream>

#include "ml/serialize.hh"
#include "runtime/fault_injection.hh"
#include "serve/service.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::bench;

struct Scenario
{
    std::string name;
    runtime::FaultConfig faults;
    support::RetryPolicy retry{};
    /** Detectors whose scores always fail. */
    std::vector<std::size_t> broken;
};

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Fault-tolerance sweep: detection under sensor and "
           "detector faults",
           "beyond the paper; cf. Sec. 7 deployment and "
           "Stochastic-HMDs (arXiv:2103.06936)");

    core::ExperimentConfig config = standardConfig();
    config.benignCount = 120;
    config.malwareCount = 240;
    const core::Experiment exp = core::Experiment::build(config);

    // A six-detector pool: three feature families at two periods.
    auto pool = core::buildRhmd("LR", poolSpecs(3, 2), exp.corpus(),
                                exp.split().victimTrain, 16, 2017);

    std::vector<const features::ProgramFeatures *> test_mal;
    for (std::size_t idx : exp.malwareOf(exp.split().attackerTest))
        test_mal.push_back(&exp.corpus().programs[idx]);
    std::vector<const features::ProgramFeatures *> test_ben;
    for (std::size_t idx : exp.benignOf(exp.split().attackerTest))
        test_ben.push_back(&exp.corpus().programs[idx]);

    std::vector<Scenario> scenarios;
    scenarios.push_back({"clean", {}, {}, {}});
    for (double sigma : {0.05, 0.15, 0.30}) {
        Scenario s;
        s.name = "noise sigma=" + Table::cell(sigma, 2);
        s.faults.counterNoiseSigma = sigma;
        scenarios.push_back(s);
    }
    for (double drop : {0.10, 0.25, 0.50}) {
        Scenario s;
        s.name = "drop p=" + Table::cell(drop, 2);
        s.faults.dropWindowProb = drop;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "truncate p=0.30";
        s.faults.truncateWindowProb = 0.30;
        s.faults.truncateFrac = 0.5;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "stuck counter";
        s.faults.stuckCounterProb = 0.02;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "transient reads p=0.4";
        s.faults.transientReadFailProb = 0.4;
        s.retry.maxAttempts = 5;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "1 broken detector";
        s.broken = {0};
        scenarios.push_back(s);
    }
    {
        // The acceptance scenario: a quarantined detector plus >=10%
        // dropped and noisy windows, simultaneously.
        Scenario s;
        s.name = "broken + drop 0.10 + noise 0.10";
        s.broken = {0};
        s.faults.dropWindowProb = 0.10;
        s.faults.counterNoiseSigma = 0.10;
        scenarios.push_back(s);
    }
    {
        Scenario s;
        s.name = "2 broken + drop 0.25";
        s.broken = {0, 3};
        s.faults.dropWindowProb = 0.25;
        scenarios.push_back(s);
    }

    Table table({"scenario", "sensitivity", "fpr", "delta_sens",
                 "classified", "retries", "quarantined", "failed_runs"});
    double clean_sens = 0.0;
    for (const Scenario &scenario : scenarios) {
        // One service per scenario and one request per batch: a
        // single worker, and each answer is awaited before the next
        // submit, so health advances once per program,
        // deterministically.
        serve::ServeConfig sc;
        sc.workers = 1;
        sc.chaos.brokenDetectors = scenario.broken;
        serve::DetectionService service(*pool, sc);

        runtime::FaultConfig faults = scenario.faults;
        faults.seed = 0xfa1717;
        runtime::FaultInjector sensor(faults);
        runtime::SenseReport sensed;
        std::size_t classified = 0;
        std::size_t failed = 0;
        std::uint64_t key = 0;
        auto tally = [&](const std::vector<
                         const features::ProgramFeatures *> &programs) {
            std::size_t detected = 0;
            for (const auto *prog : programs) {
                const features::ProgramFeatures stream = sensor.sense(
                    *prog, pool->decisionPeriod(), scenario.retry,
                    sensed);
                const auto report = service.submit(stream, key++).get();
                if (!report.isOk()) {
                    ++failed;
                    continue;
                }
                classified += report->classified;
                detected += report->programDecision == 1 ? 1 : 0;
            }
            return static_cast<double>(detected) /
                   static_cast<double>(programs.size());
        };
        const double sens = tally(test_mal);
        const double fpr = tally(test_ben);
        service.stop();
        if (scenario.name == "clean")
            clean_sens = sens;

        table.addRow(
            {scenario.name, Table::percent(sens), Table::percent(fpr),
             Table::percent(sens - clean_sens),
             Table::percent(static_cast<double>(classified) /
                            static_cast<double>(sensed.epochs)),
             std::to_string(sensed.retry.retries),
             std::to_string(service.health().quarantinedCount()),
             std::to_string(failed)});
    }
    emitTable(table);

    // Recoverable-error demonstrations: corrupt model bytes and an
    // invalid policy surface as Status errors, not process exits.
    std::printf("\nrecoverable-error paths:\n");
    {
        std::stringstream stream;
        ml::saveModel(pool->detectors()[0]->classifier(), stream);
        runtime::FaultConfig corrupt;
        corrupt.byteFlipRate = 0.1;
        corrupt.seed = 7;
        runtime::FaultInjector injector(corrupt);
        std::stringstream damaged(injector.corruptText(stream.str()));
        const auto model = ml::tryLoadModel(damaged);
        std::printf("  corrupted model file -> %s\n",
                    model.isOk() ? "parsed (flips missed the "
                                   "structure)"
                                 : model.status().toString().c_str());
    }
    {
        std::vector<double> policy{0.7, 0.2};  // wrong size + bad sum
        const auto status = core::validatePolicy(
            policy, pool->poolSize());
        std::printf("  invalid policy       -> %s\n",
                    status.toString().c_str());
    }
    return bench::finish();
}

/**
 * @file
 * Degraded deployment: serve an RHMD pool while one base detector
 * is broken and the sensor path drops and perturbs windows. Shows the
 * health monitor quarantining the failing detector, the switching
 * policy renormalizing over the survivors, and corrupt model bytes
 * surfacing as a recoverable Status instead of a crash.
 */

#include <cstdio>
#include <sstream>

#include "core/experiment.hh"
#include "ml/serialize.hh"
#include "runtime/fault_injection.hh"
#include "serve/service.hh"

using namespace rhmd;

int
main()
{
    // 1. A small experiment and a three-detector pool: the paper's
    //    resilience comes from diversity across feature families.
    core::ExperimentConfig config;
    config.benignCount = 40;
    config.malwareCount = 80;
    config.periods = {10000};
    config.traceInsts = 100000;
    const core::Experiment exp = core::Experiment::build(config);

    std::vector<features::FeatureSpec> specs;
    for (auto kind : {features::FeatureKind::Instructions,
                      features::FeatureKind::Memory,
                      features::FeatureKind::Architectural}) {
        features::FeatureSpec spec;
        spec.kind = kind;
        spec.period = 10000;
        specs.push_back(spec);
    }
    auto pool = core::buildRhmd("LR", specs, exp.corpus(),
                                exp.split().victimTrain, 16, 99);
    std::printf("deployed pool: %zu detectors, epoch %u insts\n",
                pool->poolSize(), pool->decisionPeriod());

    // 2. A hostile deployment: detector 0's scores always fail, 10%
    //    of epochs are lost by the sensor path, and counter reads
    //    carry 10% relative Gaussian noise. Sensor faults shape the
    //    stream the caller submits; detector faults are the service's.
    runtime::FaultConfig faults;
    faults.dropWindowProb = 0.10;
    faults.counterNoiseSigma = 0.10;
    faults.seed = 42;
    runtime::FaultInjector sensor(faults);
    serve::ServeConfig sc;
    sc.workers = 1;
    sc.chaos.brokenDetectors = {0};
    serve::DetectionService service(*pool, sc);

    // 3. Read each held-out program through the faulty sensor and
    //    serve the stream it delivers. Nothing aborts: lost epochs
    //    are skipped, the broken detector is quarantined, and the
    //    survivors keep classifying.
    runtime::SenseReport sensed;
    std::size_t classified = 0;
    std::size_t detected = 0;
    std::uint64_t key = 0;
    const auto test_mal = exp.malwareOf(exp.split().attackerTest);
    for (std::size_t idx : test_mal) {
        const features::ProgramFeatures stream = sensor.sense(
            exp.corpus().programs[idx], service.epochLength(),
            support::RetryPolicy{}, sensed);
        const auto report = service.submit(stream, key++).get();
        if (!report.isOk()) {
            std::printf("program lost: %s\n",
                        report.status().toString().c_str());
            continue;
        }
        classified += report->classified;
        detected += report->programDecision == 1 ? 1 : 0;
    }
    service.stop();
    std::printf("classified %zu / %zu epochs (%zu dropped); "
                "detected %zu / %zu malware programs\n",
                classified, sensed.epochs, sensed.dropped, detected,
                test_mal.size());

    // 4. The structured degradation log tells the operator what
    //    happened and when (epochs are drained batches, here one per
    //    program).
    const runtime::HealthMonitor health = service.healthSnapshot();
    std::printf("\nhealth event log:\n");
    for (const auto &event : health.events()) {
        std::printf("  epoch %4llu  detector %zu  %-10s  %s\n",
                    static_cast<unsigned long long>(event.epoch),
                    event.detector,
                    std::string(healthEventName(event.kind)).c_str(),
                    event.detail.c_str());
    }
    const auto policy = health.effectivePolicy(pool->policy());
    for (std::size_t d = 0; d < pool->poolSize(); ++d) {
        std::printf("  detector %zu: %-11s (%zu failures, "
                    "policy weight %.3f)\n",
                    d, std::string(healthName(health.health(d))).c_str(),
                    health.failureCount(d),
                    policy.isOk() ? (*policy)[d] : 0.0);
    }

    // 5. Corrupt model bytes are a recoverable error, not a crash:
    //    a deployment can fall back to the last good model.
    std::stringstream good;
    ml::saveModel(pool->detectors()[1]->classifier(), good);
    runtime::FaultConfig corrupt;
    corrupt.byteFlipRate = 0.05;
    corrupt.seed = 7;
    runtime::FaultInjector injector(corrupt);
    std::stringstream damaged(injector.corruptText(good.str()));
    const auto reloaded = ml::tryLoadModel(damaged);
    std::printf("\ncorrupted model reload -> %s\n",
                reloaded.isOk()
                    ? "parsed (flips missed the structure)"
                    : reloaded.status().toString().c_str());
    return 0;
}

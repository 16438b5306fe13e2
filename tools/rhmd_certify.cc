/**
 * @file
 * rhmd-certify: abstract-interpretation certifier driver.
 *
 * Builds the seeded experiment corpus, trains one base detector per
 * requested algorithm (cycling feature families and periods so the
 * pool is heterogeneous, as the paper's RHMD is), and runs the
 * certification pass (analysis/certify) over the held-out test
 * programs: per-detector certified stability radii, the pool-level
 * certified evasion bound, and the audit/zero-margin findings as text
 * or machine-readable JSON lines. With --evade the malware test
 * programs are first rewritten by one of the paper's evasion
 * strategies, so the certificate describes the corpus an attacker
 * actually submits. With --check N every reported radius is probed
 * with N seeded random perturbations — a flip means the certifier is
 * unsound and the run fails.
 *
 * Output is bit-identical at any --threads value: radii come from
 * fixed-iteration static analysis and programs merge in corpus order.
 * The static-analysis CI job diffs 1-thread vs N-thread runs.
 *
 * Exit status: 0 when the pool certifies (no error findings; with
 * --strict, no warnings either; with --check, no flips), 1 otherwise,
 * 2 on usage errors.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "analysis/certify/pool_cert.hh"
#include "core/experiment.hh"
#include "core/rhmd.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/parse.hh"
#include "support/tracing.hh"

namespace
{

using namespace rhmd;

struct Options
{
    std::uint64_t seed = 20171014;
    std::size_t benign = 60;
    std::size_t malware = 120;
    std::string algorithms = "LR,NN,DT,SVM,RF";
    std::string evade = "none";  // none|random|least_weight|weighted
    double epsilon = 0.25;
    double cap = 8.0;
    std::size_t check = 0;  // perturbation samples per window; 0 = off
    bool json = false;
    bool strict = false;
    std::size_t maxPrint = 25;
    std::size_t threads = 0;  // 0 = RHMD_THREADS env, then hardware
    std::string metricsDir;   // empty disables the snapshot
};

void
usage(const char *argv0)
{
    std::printf(
        "usage: %s [options]\n"
        "  --seed N        corpus seed (default 20171014)\n"
        "  --benign N      benign programs to generate (default 60)\n"
        "  --malware N     malware programs to generate (default 120)\n"
        "  --algorithms A  comma-separated pool algorithms\n"
        "                  (default LR,NN,DT,SVM,RF)\n"
        "  --evade MODE    none|random|least_weight|weighted "
        "(default none)\n"
        "  --epsilon E     reference radius for the stable-mass "
        "statistic\n"
        "                  (default 0.25 standardized units)\n"
        "  --cap C         radius cap before averaging (default 8)\n"
        "  --check N       probe every radius with N seeded random\n"
        "                  perturbations; any flip fails the run "
        "(default off)\n"
        "  --json          emit findings as JSON lines\n"
        "  --strict        warnings also fail the run\n"
        "  --max-print N   findings printed in text mode (default 25)\n"
        "  --threads N     worker threads (default: RHMD_THREADS env, "
        "then hardware)\n"
        "  --metrics DIR   write METRICS_rhmd_certify.{json,prom} "
        "snapshots\n"
        "                  (with the run manifest) into DIR\n",
        argv0);
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    auto need_value = [&](int i) { return i + 1 < argc; };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json") {
            opt.json = true;
        } else if (arg == "--strict") {
            opt.strict = true;
        } else if (arg == "--seed" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.seed))
                return false;
        } else if (arg == "--benign" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.benign))
                return false;
        } else if (arg == "--malware" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.malware))
                return false;
        } else if (arg == "--algorithms" && need_value(i)) {
            opt.algorithms = argv[++i];
        } else if (arg == "--epsilon" && need_value(i)) {
            if (!support::parseDouble(argv[++i], opt.epsilon))
                return false;
        } else if (arg == "--cap" && need_value(i)) {
            if (!support::parseDouble(argv[++i], opt.cap))
                return false;
        } else if (arg == "--check" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.check))
                return false;
        } else if (arg == "--max-print" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.maxPrint))
                return false;
        } else if (arg == "--threads" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.threads))
                return false;
        } else if (arg == "--metrics" && need_value(i)) {
            opt.metricsDir = argv[++i];
        } else if (arg == "--evade" && need_value(i)) {
            opt.evade = argv[++i];
            if (opt.evade != "none" && opt.evade != "random" &&
                opt.evade != "least_weight" && opt.evade != "weighted")
                return false;
        } else {
            return false;
        }
    }
    return opt.epsilon >= 0.0 && opt.cap > 0.0;
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= csv.size()) {
        const std::size_t comma = csv.find(',', start);
        const std::size_t end =
            comma == std::string::npos ? csv.size() : comma;
        if (end > start)
            parts.push_back(csv.substr(start, end - start));
        if (comma == std::string::npos)
            break;
        start = comma + 1;
    }
    return parts;
}

/** Print one finding in the text format (rhmd-verify's layout). */
void
printFinding(const analysis::Finding &finding)
{
    std::string where;
    if (finding.function != analysis::kNoIndex)
        where += " det " + std::to_string(finding.function);
    if (finding.block != analysis::kNoIndex)
        where += " prog " + std::to_string(finding.block);
    if (finding.inst != analysis::kNoIndex)
        where += " epoch " + std::to_string(finding.inst);
    std::printf("pool: %s [%.*s/%.*s]%s: %s\n",
                std::string(analysis::severityName(finding.severity))
                    .c_str(),
                static_cast<int>(finding.pass.size()),
                finding.pass.data(),
                static_cast<int>(finding.code.size()),
                finding.code.data(), where.c_str(),
                finding.message.c_str());
}

/** Render a radius: finite values fixed-precision, inf as "inf". */
std::string
fmtRadius(double r)
{
    if (r == analysis::certify::kUnboundedRadius)
        return "inf";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6f", r);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage(argv[0]);
        return 2;
    }
    support::setGlobalThreads(opt.threads);

    const std::vector<std::string> algorithms =
        splitCsv(opt.algorithms);
    if (algorithms.empty()) {
        usage(argv[0]);
        return 2;
    }

    core::ExperimentConfig config;
    config.seed = opt.seed;
    config.benignCount = opt.benign;
    config.malwareCount = opt.malware;
    const core::Experiment experiment = core::Experiment::build(config);

    // One heterogeneous detector per algorithm: cycle the three
    // feature families and the two periods so no two detectors share
    // a configuration (the pool diversity RHMD's guarantees ride on).
    constexpr features::FeatureKind kKinds[] = {
        features::FeatureKind::Instructions,
        features::FeatureKind::Memory,
        features::FeatureKind::Architectural,
    };
    constexpr std::uint32_t kPeriods[] = {10000, 5000};
    std::vector<std::unique_ptr<core::Hmd>> detectors;
    for (std::size_t i = 0; i < algorithms.size(); ++i) {
        detectors.push_back(experiment.trainVictim(
            algorithms[i], kKinds[i % 3], kPeriods[i % 2],
            opt.seed ^ (0xce271fULL + i)));
    }
    const std::vector<double> policy(
        detectors.size(), 1.0 / static_cast<double>(detectors.size()));
    auto pool = core::tryMakeRhmd(std::move(detectors), policy,
                                  opt.seed ^ 0x9001ULL);
    if (!pool.isOk()) {
        std::fprintf(stderr, "rhmd-certify: %s\n",
                     pool.status().toString().c_str());
        return 2;
    }

    // The certification corpus: the attacker-side test split, with
    // the malware programs optionally replaced by their evasion
    // rewrites (same execution salt; only the injected code differs).
    features::FeatureCorpus corpus = experiment.corpus();
    const std::vector<std::size_t> &test_idx =
        experiment.split().attackerTest;
    if (opt.evade != "none") {
        core::EvasionPlan plan;
        plan.seed = opt.seed ^ 0xe5a510ULL;
        if (opt.evade == "random")
            plan.strategy = core::EvasionStrategy::Random;
        else if (opt.evade == "least_weight")
            plan.strategy = core::EvasionStrategy::LeastWeight;
        else
            plan.strategy = core::EvasionStrategy::Weighted;
        const std::unique_ptr<core::Hmd> victim =
            experiment.trainVictim(
                "LR", features::FeatureKind::Instructions, 10000);
        const std::vector<std::size_t> evaders =
            experiment.malwareOf(test_idx);
        const std::vector<features::ProgramFeatures> rewritten =
            experiment.extractEvasive(evaders, plan, victim.get());
        for (std::size_t i = 0; i < evaders.size(); ++i)
            corpus.programs[evaders[i]] = rewritten[i];
    }

    analysis::certify::CertifyOptions options;
    options.referenceEpsilon = opt.epsilon;
    options.radiusCap = opt.cap;
    auto cert = analysis::certify::certifyPool(**pool, corpus,
                                               test_idx, options);
    if (!cert.isOk()) {
        std::fprintf(stderr, "rhmd-certify: %s\n",
                     cert.status().toString().c_str());
        return 2;
    }

    // Optional soundness probe: every certified radius must survive
    // N random perturbations of that magnitude. This checks the
    // certifier itself, so it recomputes radii rather than trusting
    // the aggregate statistics.
    std::size_t flips = 0;
    if (opt.check > 0 && cert->report.clean()) {
        const std::uint32_t epoch = (*pool)->decisionPeriod();
        const std::vector<std::size_t> flip_counts =
            support::parallelMap<std::size_t>(
                test_idx.size(), [&](std::size_t p) {
                    const features::ProgramFeatures &prog =
                        corpus.programs[test_idx[p]];
                    std::size_t local = 0;
                    for (std::size_t i = 0; i < (*pool)->poolSize();
                         ++i) {
                        const core::Hmd &det = *(*pool)->detectors()[i];
                        const std::vector<const features::RawWindow *>
                            windows = core::epochWindows(prog, epoch, det);
                        for (std::size_t e = 0; e < windows.size(); ++e) {
                            const std::vector<double> x =
                                det.featureVector(*windows[e]);
                            const double radius =
                                analysis::certify::stabilityRadius(
                                    det.classifier(), det.threshold(),
                                    x);
                            if (radius <= 0.0)
                                continue;
                            const double probe =
                                radius ==
                                        analysis::certify::
                                            kUnboundedRadius
                                    ? opt.cap
                                    : radius;
                            local += analysis::certify::
                                countFlipsUnderPerturbation(
                                    det.classifier(), det.threshold(),
                                    x, probe, opt.check,
                                    opt.seed ^ (p * 7919 + i * 131 +
                                                e));
                        }
                    }
                    return local;
                });
        for (std::size_t count : flip_counts)
            flips += count;
    }

    if (opt.json) {
        if (!cert->report.findings().empty())
            std::fputs(cert->report.toJsonLines("pool").c_str(),
                       stdout);
    } else {
        std::size_t printed = 0;
        for (const analysis::Finding &finding :
             cert->report.findings()) {
            if (printed >= opt.maxPrint)
                break;
            printFinding(finding);
            ++printed;
        }
        std::printf("detector                          windows "
                    "zero      min     mean   median   stable\n");
        for (const analysis::certify::DetectorCertificate &det :
             cert->detectors) {
            std::printf("%-33s %7zu %4zu %8s %8s %8s %8.4f\n",
                        det.label.c_str(), det.windows,
                        det.zeroMarginWindows,
                        fmtRadius(det.minRadius).c_str(),
                        fmtRadius(det.meanRadius).c_str(),
                        fmtRadius(det.medianRadius).c_str(),
                        det.stableFraction);
        }
        std::printf("rhmd-certify: %zu detectors, %zu epochs "
                    "(evade=%s), certified bound %s, stable mass "
                    "%.4f @ eps=%.3f, min radius %s\n",
                    cert->detectors.size(), cert->epochs,
                    opt.evade.c_str(),
                    fmtRadius(cert->certifiedBound).c_str(),
                    cert->stableMass, cert->referenceEpsilon,
                    fmtRadius(cert->minRadius).c_str());
        if (opt.check > 0) {
            std::printf("soundness probe: %zu samples/window, "
                        "%zu flips\n",
                        opt.check, flips);
        }
    }

    const bool failed =
        !cert->report.clean() ||
        (opt.strict && cert->report.warningCount() > 0) || flips > 0;
    if (!opt.json)
        std::printf("%s\n", failed ? "FAILED" : "OK");

    if (!opt.metricsDir.empty()) {
        support::RunManifest manifest;
        manifest.tool = "rhmd_certify";
        manifest.seed = opt.seed;
        manifest.threads = support::globalThreads();
        manifest.addConfig("evade", opt.evade);
        manifest.addConfig("algorithms", opt.algorithms);
        if (!support::writeObservabilitySnapshot(
                opt.metricsDir, "rhmd_certify", manifest))
            return 2;
    }
    return failed ? 1 : 0;
}

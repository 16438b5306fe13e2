/**
 * @file
 * rhmd-verify: lint driver for the static verification layer.
 *
 * Generates the seeded program corpus, optionally applies one of the
 * paper's evasion rewrites, and runs every program through the
 * analysis pipeline (CFG verification + semantic preservation),
 * printing findings as text or machine-readable JSON lines. With
 * --dcfg it also executes each program and cross-checks the
 * dynamically recovered CFG.
 *
 * Exit status: 0 when every program verifies (no error findings; with
 * --strict, no warnings either), 1 on findings, 2 on usage errors.
 * This is what the static-analysis CI job runs over the corpus.
 */

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/cfg.hh"
#include "analysis/verifier.hh"
#include "core/evasion.hh"
#include "core/experiment.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/parse.hh"
#include "support/tracing.hh"
#include "trace/dcfg.hh"
#include "trace/execution.hh"
#include "trace/generator.hh"

namespace
{

using namespace rhmd;

struct Options
{
    std::uint64_t seed = 20171014;
    std::size_t benign = 60;
    std::size_t malware = 120;
    std::string evade = "none";   // none|random|least_weight|weighted
    trace::InjectLevel level = trace::InjectLevel::Block;
    std::size_t count = 2;
    std::uint64_t dcfgInsts = 0;  // 0 disables the dynamic check
    bool json = false;
    bool strict = false;
    bool pedantic = false;
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
        "  --evade MODE    none|random|least_weight|weighted "
        "(default none)\n"
        "  --level L       injection level: block|function "
        "(default block)\n"
        "  --count N       payload instructions per site (default 2)\n"
        "  --dcfg N        also execute N instructions per program and\n"
        "                  check the recovered dynamic CFG (default off)\n"
        "  --json          emit findings as JSON lines\n"
        "  --strict        warnings also fail the run\n"
        "  --pedantic      enable noisy lints (unreachable blocks)\n"
        "  --max-print N   findings printed in text mode (default 25)\n"
        "  --threads N     worker threads for generation, rewriting "
        "and\n"
        "                  verification (default: RHMD_THREADS env, "
        "then hardware)\n"
        "  --metrics DIR   write METRICS_rhmd_verify.{json,prom} "
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
        } else if (arg == "--pedantic") {
            opt.pedantic = true;
        } else if (arg == "--seed" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.seed))
                return false;
        } else if (arg == "--benign" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.benign))
                return false;
        } else if (arg == "--malware" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.malware))
                return false;
        } else if (arg == "--count" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.count))
                return false;
        } else if (arg == "--dcfg" && need_value(i)) {
            if (!support::parseUnsigned(argv[++i], opt.dcfgInsts))
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
        } else if (arg == "--level" && need_value(i)) {
            const std::string level = argv[++i];
            if (level == "block")
                opt.level = trace::InjectLevel::Block;
            else if (level == "function")
                opt.level = trace::InjectLevel::Function;
            else
                return false;
        } else {
            return false;
        }
    }
    return true;
}

/** Print one finding in the text format. */
void
printFinding(const std::string &program,
             const analysis::Finding &finding)
{
    std::string where;
    if (finding.function != analysis::kNoIndex)
        where += " fn " + std::to_string(finding.function);
    if (finding.block != analysis::kNoIndex)
        where += " blk " + std::to_string(finding.block);
    if (finding.inst != analysis::kNoIndex)
        where += " inst " + std::to_string(finding.inst);
    std::printf("%s: %s [%.*s/%.*s]%s: %s\n", program.c_str(),
                std::string(analysis::severityName(finding.severity))
                    .c_str(),
                static_cast<int>(finding.pass.size()),
                finding.pass.data(),
                static_cast<int>(finding.code.size()),
                finding.code.data(), where.c_str(),
                finding.message.c_str());
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

    // Model-guided evasion needs the full experiment pipeline (victim
    // training); the plain corpus walk only needs the generator.
    std::vector<trace::Program> programs;
    std::unique_ptr<core::Hmd> victim;
    std::optional<core::Experiment> experiment;
    if (opt.evade == "least_weight" || opt.evade == "weighted") {
        core::ExperimentConfig config;
        config.seed = opt.seed;
        config.benignCount = opt.benign;
        config.malwareCount = opt.malware;
        experiment = core::Experiment::build(config);
        victim = experiment->trainVictim(
            "LR", features::FeatureKind::Instructions, 10000);
        programs = experiment->programs();
    } else {
        trace::GeneratorConfig config;
        config.seed = opt.seed;
        config.benignCount = opt.benign;
        config.malwareCount = opt.malware;
        programs = trace::ProgramGenerator(config).generateCorpus();
    }

    core::EvasionPlan plan;
    plan.level = opt.level;
    plan.count = opt.count;
    plan.seed = opt.seed ^ 0xe5a510ULL;
    if (opt.evade == "random")
        plan.strategy = core::EvasionStrategy::Random;
    else if (opt.evade == "least_weight")
        plan.strategy = core::EvasionStrategy::LeastWeight;
    else if (opt.evade == "weighted")
        plan.strategy = core::EvasionStrategy::Weighted;

    analysis::CfgOptions cfg_options;
    cfg_options.flagUnreachableBlocks = opt.pedantic;
    core::EvasionAudit audit;
    std::size_t errors = 0;
    std::size_t warnings = 0;
    std::size_t notes = 0;
    std::size_t failed_programs = 0;
    std::size_t printed = 0;

    // Rewrite + verify every program on the pool; reports come back
    // in program order, so printed findings and the audit counters
    // are identical at any thread count.
    struct ProgramResult
    {
        std::string name;
        analysis::Report report;
        core::EvasionAudit audit;
    };
    std::vector<ProgramResult> results =
        support::parallelMap<ProgramResult>(
            programs.size(), [&](std::size_t p) {
                const trace::Program &original = programs[p];
                ProgramResult result;
                trace::Program modified;
                const trace::Program *subject = &original;
                if (opt.evade != "none" && original.malware) {
                    modified = core::evadeRewrite(
                        original, plan, victim.get(), &result.audit);
                    subject = &modified;
                }
                result.name = subject->name;
                result.report =
                    analysis::verifyProgram(*subject, cfg_options);
                if (opt.dcfgInsts > 0) {
                    trace::DcfgBuilder dcfg;
                    trace::Executor(*subject, opt.seed ^ subject->seed)
                        .run(opt.dcfgInsts, dcfg);
                    analysis::checkDcfg(dcfg, result.report);
                }
                return result;
            });

    for (const ProgramResult &result : results) {
        const analysis::Report &report = result.report;
        audit.admittedSites += result.audit.admittedSites;
        audit.rejectedSites += result.audit.rejectedSites;
        audit.verifiedPrograms += result.audit.verifiedPrograms;

        errors += report.errorCount();
        warnings += report.warningCount();
        notes += report.noteCount();
        const bool failed =
            !report.clean() ||
            (opt.strict && report.warningCount() > 0);
        failed_programs += failed ? 1U : 0U;

        if (opt.json) {
            if (!report.findings().empty())
                std::fputs(report.toJsonLines(result.name).c_str(),
                           stdout);
        } else {
            for (const analysis::Finding &finding : report.findings()) {
                if (printed >= opt.maxPrint) {
                    break;
                }
                printFinding(result.name, finding);
                ++printed;
            }
        }
    }

    if (!opt.json) {
        std::printf("rhmd-verify: %zu programs (evade=%s), "
                    "%zu errors, %zu warnings, %zu notes\n",
                    programs.size(), opt.evade.c_str(), errors, warnings,
                    notes);
        if (opt.evade != "none") {
            std::printf("injection gate: %zu sites admitted, "
                        "%zu rejected\n",
                        audit.admittedSites, audit.rejectedSites);
        }
        if (failed_programs > 0) {
            std::printf("FAILED: %zu of %zu programs\n", failed_programs,
                        programs.size());
        } else {
            std::printf("OK\n");
        }
    }

    if (!opt.metricsDir.empty()) {
        support::RunManifest manifest;
        manifest.tool = "rhmd_verify";
        manifest.seed = opt.seed;
        manifest.threads = support::globalThreads();
        manifest.addConfig("evade", opt.evade);
        manifest.addConfig("count", std::to_string(opt.count));
        if (!support::writeObservabilitySnapshot(
                opt.metricsDir, "rhmd_verify", manifest))
            return 2;
    }
    return failed_programs > 0 ? 1 : 0;
}

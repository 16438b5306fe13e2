/**
 * @file
 * perfbench: the end-to-end benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--spans-out FILE] [--git-describe TEXT]
 *             [--source-digest TEXT]
 *
 * Runs fixed-size reps with fresh seeded inputs for S seconds, setting
 * the workload up again now and then in between (setup_s is the
 * fastest set-up, rep_ms the fastest rep), replays the first reps and
 * the fastest one to check determinism (and, on the default seed, the
 * golden digest), and prints every metric by name with its unit.
 * run.py passes the provenance of the measured sources in
 * --git-describe and --source-digest. The last line of standard output
 * is one JSON object:
 * with --trace 0 the end-to-end metrics, with --trace 1 the per-layer
 * metrics of the traced reps. NOTES.md explains the statistics.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "check.hh"
#include "spans.hh"
#include "stats.hh"
#include "support/metrics.hh"
#include "support/parallel.hh"
#include "support/simd.hh"
#include "workload.hh"

namespace
{

using namespace perfbench;

/**
 * Set-ups get the reps' best-of treatment: setup_s is the fastest of
 * several. The first set-up runs before the timed loop; the loop sets
 * up again (after an untimed teardown) whenever set-ups have taken
 * less than kSetupShare of the run so far, so they are spread over the
 * same stretches of host speed as the reps. At least kSetupMinRuns.
 */
constexpr std::size_t kSetupMinRuns = 3;
constexpr double kSetupShare = 1.0 / 3.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string spansOut;
    std::string gitDescribe = "unknown";
    std::string sourceDigest = "unknown";
};

[[noreturn]] void
usage(const char *argv0, const std::string &error)
{
    std::fprintf(stderr,
                 "%s: %s\nusage: %s --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--spans-out FILE] "
                 "[--git-describe TEXT] [--source-digest TEXT]\n"
                 "workloads:",
                 argv0, error.c_str(), argv0);
    for (const std::string &name : workloadNames())
        std::fprintf(stderr, " %s", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(argv[0], "missing value for '" + flag + "'");
        const std::string value = argv[++i];
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            const auto seed = parseU64(value);
            if (!seed)
                usage(argv[0], "invalid --seed '" + value + "'");
            options.seed = *seed;
        } else if (flag == "--seconds") {
            const auto seconds = parsePositive(value);
            if (!seconds || *seconds > 3600.0)
                usage(argv[0], "invalid --seconds '" + value + "'");
            options.seconds = *seconds;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage(argv[0], "invalid --trace '" + value + "'");
            options.trace = value == "1";
        } else if (flag == "--spans-out") {
            options.spansOut = value;
        } else if (flag == "--git-describe") {
            options.gitDescribe = value;
        } else if (flag == "--source-digest") {
            options.sourceDigest = value;
        } else {
            usage(argv[0], "unknown argument '" + flag + "'");
        }
    }
    if (options.workload.empty())
        usage(argv[0], "--workload is required");
    return options;
}

/**
 * Run single-threaded on the build's widest SIMD target and extract
 * every corpus fresh, whatever the environment asks for, so neither a
 * thread count, a replayed corpus nor a forced dispatch target can
 * pass for a speed-up.
 */
void
pinEnvironment()
{
    for (const char *name : {"RHMD_THREADS", "RHMD_CORPUS_DIR", "RHMD_SIMD"})
        unsetenv(name);
    rhmd::support::setGlobalThreads(1);
    rhmd::simd::setActiveTarget(rhmd::simd::bestTarget());
}

std::string
loadAverage()
{
    double load[3] = {0.0, 0.0, 0.0};
    if (getloadavg(load, 3) != 3)
        return "unknown";
    char text[64];
    std::snprintf(text, sizeof(text), "%.2f %.2f %.2f", load[0], load[1],
                  load[2]);
    return text;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/** Registry counters whose per-rep deltas feed the per-layer metrics. */
const std::vector<std::string> &
countedNames()
{
    static const std::vector<std::string> names = {
        "corpus.windows",          "reveng.victim_decisions",
        "evasion.sites_admitted",  "evasion.sites_rejected",
        "serve.batches",           "serve.requests",
        "serve.shed_queue_full",   "serve.shed_deadline",
        "serve.shed_deadline_submit", "serve.shed_stopped",
        "serve.shed_quota",        "serve.shed_circuit_open",
    };
    return names;
}

std::vector<std::uint64_t>
counterSnapshot()
{
    std::vector<std::uint64_t> values;
    for (const std::string &name : countedNames())
        values.push_back(rhmd::support::metrics().counterValue(name));
    return values;
}

rhmd::support::Gauge &
queueDepthPeak()
{
    return rhmd::support::metrics().gauge(
        "serve.queue_depth_peak", "maximum observed request-queue depth");
}

/** What a traced rep left in the registry. */
struct RepCounters
{
    std::vector<std::uint64_t> delta;  ///< in countedNames() order
    double queueDepthPeak = 0.0;

    std::uint64_t operator[](const std::string &name) const
    {
        const std::vector<std::string> &names = countedNames();
        const auto it = std::find(names.begin(), names.end(), name);
        return delta[static_cast<std::size_t>(it - names.begin())];
    }
    std::uint64_t shed() const
    {
        std::uint64_t total = 0;
        for (std::size_t i = 0; i < delta.size(); ++i) {
            if (countedNames()[i].rfind("serve.shed_", 0) == 0)
                total += delta[i];
        }
        return total;
    }
};

double
ratio(double numerator, double denominator)
{
    return denominator > 0.0 ? numerator / denominator : 0.0;
}

/** The per-layer metrics of one traced rep, in BENCHMARK.json order. */
std::vector<Metric>
layerMetrics(const RepProfile &profile, const RepCounters &counters,
             const LayerRow &score, const LayerRow &decide,
             const UarchTotals &uarch, double overhead)
{
    const auto row = [&](const char *name) {
        const auto it = profile.layers.find(name);
        return it == profile.layers.end() ? LayerRow{} : it->second;
    };
    const auto d = [](std::uint64_t value) {
        return static_cast<double>(value);
    };
    const LayerRow extract = row("features.extract");
    const LayerRow train = row("ml.train");
    const LayerRow rewrite = row("core.evade_rewrite");
    const LayerRow submit = row("serve.submit");
    const double insts = d(uarch.insts);
    const auto perKinst = [&](rhmd::uarch::Event event) {
        return ratio(1000.0 * d(uarch.events[static_cast<std::size_t>(event)]),
                     insts);
    };
    const double admitted = d(counters["evasion.sites_admitted"]);
    const double rejected = d(counters["evasion.sites_rejected"]);
    return {
        {"features.extract.calls", "count", d(extract.calls)},
        {"features.extract.s", "s", extract.seconds},
        {"features.extract.insts", "count", d(extract.units)},
        {"features.extract.windows", "count", d(counters["corpus.windows"])},
        {"features.extract.minst_per_s", "Minst/s",
         ratio(d(extract.units), extract.seconds) / 1e6},
        {"uarch.cpi", "cycle/inst", ratio(uarch.cycles, insts)},
        {"uarch.dcache_mpki", "miss/kinst",
         perKinst(rhmd::uarch::Event::DCacheMisses)},
        {"uarch.icache_mpki", "miss/kinst",
         perKinst(rhmd::uarch::Event::ICacheMisses)},
        {"uarch.branch_mpki", "miss/kinst",
         perKinst(rhmd::uarch::Event::Mispredicts)},
        {"ml.train.calls", "count", d(train.calls)},
        {"ml.train.s", "s", train.seconds},
        {"ml.train.rows", "count", d(train.units)},
        {"ml.train.rows_per_s", "rows/s", ratio(d(train.units), train.seconds)},
        {"core.victim_query.s", "s", row("core.victim_query").seconds},
        {"core.victim_query.decisions", "count",
         d(counters["reveng.victim_decisions"])},
        {"core.proxy_train.s", "s", row("core.proxy_train").seconds},
        {"core.evade_rewrite.calls", "count", d(rewrite.calls)},
        {"core.evade_rewrite.s", "s", rewrite.seconds},
        {"analysis.sites_admitted", "count", admitted},
        {"analysis.sites_rejected", "count", rejected},
        {"analysis.admit_ratio", "ratio", ratio(admitted, admitted + rejected)},
        {"core.detection_rate.s", "s", row("core.detection_rate").seconds},
        {"ml.score.rows_per_s", "rows/s", ratio(d(score.units), score.seconds)},
        {"core.decide_batch.us_per_request", "us/req",
         1e6 * ratio(decide.seconds, d(decide.units))},
        {"serve.submit.us_per_request", "us/req",
         1e6 * ratio(submit.seconds, d(submit.calls))},
        {"serve.wait.s", "s", row("serve.wait").seconds},
        {"serve.batches", "count", d(counters["serve.batches"])},
        {"serve.batch_mean", "req/batch",
         ratio(d(counters["serve.requests"]), d(counters["serve.batches"]))},
        {"serve.queue_depth_peak", "count", counters.queueDepthPeak},
        {"serve.shed", "count", d(counters.shed())},
        {"unattributed.s", "s", profile.unattributedSeconds},
        {"unattributed.share", "ratio",
         ratio(profile.unattributedSeconds, profile.repSeconds)},
        {"trace_overhead", "ratio", overhead},
    };
}

void
printLayerTable(const RepProfile &profile, const LayerRow &score,
                const LayerRow &decide)
{
    std::vector<std::pair<std::string, LayerRow>> rows(profile.layers.begin(),
                                                       profile.layers.end());
    std::sort(rows.begin(), rows.end(), [](const auto &a, const auto &b) {
        return a.second.seconds > b.second.seconds;
    });
    std::printf("\nlayers of the best traced rep (%.6f s)\n",
                profile.repSeconds);
    std::printf("%-22s %8s %12s %14s %10s %7s\n", "call", "calls", "units",
                "units/s", "self_s", "share");
    for (const auto &[name, row] : rows) {
        std::printf("%-22s %8llu %12llu %14.1f %10.6f %6.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(row.calls),
                    static_cast<unsigned long long>(row.units),
                    ratio(static_cast<double>(row.units), row.wallSeconds),
                    row.seconds, 100.0 * row.seconds / profile.repSeconds);
    }
    std::printf("%-22s %8s %12s %14s %10.6f %6.1f%%\n", "unattributed", "-",
                "-", "-", profile.unattributedSeconds,
                100.0 * profile.unattributedSeconds / profile.repSeconds);
    for (const auto &[name, row] : {std::pair{"ml.score", score},
                                    std::pair{"core.decide_batch", decide}}) {
        if (row.calls == 0)
            continue;
        std::printf("probe %-16s %8llu %12llu %14.1f %10.6f  (outside the "
                    "timed rep)\n",
                    name, static_cast<unsigned long long>(row.calls),
                    static_cast<unsigned long long>(row.units),
                    ratio(static_cast<double>(row.units), row.seconds),
                    row.seconds);
    }
}

void
printMetric(const Metric &metric)
{
    std::printf("metric %-34s %.6g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
}

void
printJson(bool correct, std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const double value =
            std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                    metrics[i].unit.c_str());
    }
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options options = parseOptions(argc, argv);
    std::unique_ptr<Workload> workload =
        makeWorkload(options.workload, options.seed);
    if (workload == nullptr)
        usage(argv[0], "unknown workload '" + options.workload + "'");
    pinEnvironment();
    const std::string loadStart = loadAverage();

    std::vector<double> setupSeconds;
    double setupTotal = 0.0;
    const auto timedSetup = [&] {
        if (!setupSeconds.empty())
            workload->teardown();
        const Clock::time_point start = Clock::now();
        workload->setup();
        setupSeconds.push_back(
            std::chrono::duration<double>(Clock::now() - start).count());
        setupTotal += setupSeconds.back();
    };
    timedSetup();

    // Timed loop. A traced run alternates untraced and traced reps so
    // both see the same host phases; the untraced ones give the
    // overhead baseline. Only the fastest traced rep's spans are kept
    // (in bestTracer): the per-layer metrics come from it, and a serve
    // run would otherwise hold hundreds of megabytes of spans.
    const std::uint32_t checked = workload->checkedReps();
    const std::uint32_t minReps = std::max<std::uint32_t>(checked, 2);
    const Clock::time_point origin = Clock::now();
    Tracer tracer(origin);
    Tracer bestTracer(origin);
    double bestTracedSeconds = 0.0;
    std::vector<RepResult> reps;
    std::vector<RepCounters> counters;
    const auto isTraced = [&](std::uint32_t index) {
        return options.trace && index % 2 == 1;
    };
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(options.seconds));
    for (std::uint32_t index = 0;; ++index) {
        const Clock::time_point now = Clock::now();
        if (index >= minReps && now >= deadline)
            break;
        if (setupTotal <
            kSetupShare * std::chrono::duration<double>(now - origin).count())
            timedSetup();
        const bool traced = isTraced(index);
        RepCounters repCounters;
        std::vector<std::uint64_t> before;
        if (traced) {
            before = counterSnapshot();
            queueDepthPeak().reset();
        }
        reps.push_back(workload->runRep(index, traced ? &tracer : nullptr));
        if (traced) {
            repCounters.delta = counterSnapshot();
            for (std::size_t i = 0; i < before.size(); ++i)
                repCounters.delta[i] -= before[i];
            repCounters.queueDepthPeak = queueDepthPeak().value();
            workload->probe(index, tracer);
            if (bestTracer.spans().empty() ||
                reps.back().seconds < bestTracedSeconds) {
                bestTracedSeconds = reps.back().seconds;
                std::swap(tracer, bestTracer);
            }
            tracer.clear();
        }
        counters.push_back(std::move(repCounters));
    }
    while (setupSeconds.size() < kSetupMinRuns)
        timedSetup();

    // Output checks: replay the checked prefix from scratch.
    std::vector<std::uint64_t> timedDigests;
    std::vector<std::uint64_t> replayDigests;
    UarchTotals uarch;
    for (std::uint32_t index = 0; index < checked; ++index) {
        timedDigests.push_back(reps[index].digest);
        uarch.add(reps[index].uarch);
    }
    for (std::uint32_t index = 0; index < checked; ++index)
        replayDigests.push_back(workload->runRep(index, nullptr).digest);
    const RunCheck check = checkRun(options.workload, options.seed,
                                    timedDigests, replayDigests);

    // Best-rep statistics over the untraced reps.
    std::vector<RepResult> untracedReps;
    std::vector<double> untraced;
    std::vector<std::uint32_t> untracedIndex;
    std::vector<double> tracedSeconds;
    std::vector<std::uint32_t> tracedIndex;
    for (std::uint32_t index = 0; index < reps.size(); ++index) {
        if (isTraced(index)) {
            tracedSeconds.push_back(reps[index].seconds);
            tracedIndex.push_back(index);
        } else {
            untracedReps.push_back(reps[index]);
            untraced.push_back(reps[index].seconds);
            untracedIndex.push_back(index);
        }
    }
    const std::uint32_t bestRep = untracedIndex[bestIndex(untraced)];
    const double repSeconds = reps[bestRep].seconds;
    // The rep that sets rep_ms must reproduce its outputs too.
    const bool bestReplays =
        workload->runRep(bestRep, nullptr).digest == reps[bestRep].digest;

    bool valid = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    for (const RepResult &rep : reps) {
        valid = valid && rep.valid;
        attempted += rep.attempted;
        failed += rep.failed;
    }
    const bool correct = check.ok() && bestReplays && valid;

    std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed), options.seconds,
                options.trace ? 1 : 0);
    std::printf("provenance git=%s source=%s build=%s simd=%s threads=%zu "
                "nproc=%ld load_start=[%s] load_end=[%s]\n",
                options.gitDescribe.c_str(), options.sourceDigest.c_str(),
                PERFBENCH_BUILD_TYPE,
                rhmd::simd::targetName(rhmd::simd::activeTarget()),
                rhmd::support::globalThreads(), sysconf(_SC_NPROCESSORS_ONLN),
                loadStart.c_str(), loadAverage().c_str());
    std::printf("setup runs=%zu best=%.6f s median=%.6f s\n",
                setupSeconds.size(), setupSeconds[bestIndex(setupSeconds)],
                median(setupSeconds));
    std::vector<double> sortedReps = untraced;
    std::sort(sortedReps.begin(), sortedReps.end());
    std::printf("reps untraced=%zu traced=%zu best=%.6f s p10=%.6f s "
                "median=%.6f s\n",
                untraced.size(), tracedSeconds.size(), repSeconds,
                *percentile(sortedReps, 10.0, 0), median(untraced));
    std::printf("check reps=%u digest=%016llx replay=%s best_rep=%u "
                "best_replay=%s golden=%s\n",
                checked, static_cast<unsigned long long>(check.digest),
                check.replayMatches ? "match" : "MISMATCH", bestRep,
                bestReplays ? "match" : "MISMATCH",
                !check.goldenChecked ? "n/a (not the default seed)"
                : check.goldenMatches ? "match"
                                      : "MISMATCH");
    if (!valid)
        std::printf("check invariant=VIOLATED\n");

    const std::vector<Metric> endToEnd = {
        {"rep_ms", "ms", 1e3 * repSeconds},
        {"setup_s", "s", setupSeconds[bestIndex(setupSeconds)]},
        {"peak_rss_mb", "MB", peakRssMb()},
    };
    for (const Metric &metric : workload->summarize(repSeconds, untracedReps))
        printMetric(metric);
    for (const Metric &metric : endToEnd)
        printMetric(metric);

    if (!options.trace) {
        printJson(correct, attempted, failed, endToEnd);
        return correct ? 0 : 1;
    }

    const std::size_t bestTraced = bestIndex(tracedSeconds);
    const std::uint32_t rep = tracedIndex[bestTraced];
    const std::vector<Span> &spans = bestTracer.spans();
    const RepProfile profile = profileRep(spans, findRepRoot(spans, rep));
    const LayerRow score = probeRow(spans, rep, "ml.score");
    const LayerRow decide = probeRow(spans, rep, "core.decide_batch");
    const double overhead = tracedSeconds[bestTraced] / repSeconds - 1.0;
    printLayerTable(profile, score, decide);
    std::printf("attributed %.1f%% of the rep to named layer spans; trace "
                "overhead %+.2f%% (best traced rep %.6f s vs best untraced "
                "%.6f s)\n",
                100.0 * (1.0 - profile.unattributedSeconds / profile.repSeconds),
                100.0 * overhead, tracedSeconds[bestTraced], repSeconds);
    const std::vector<Metric> layers = layerMetrics(
        profile, counters[rep], score, decide, uarch, overhead);
    for (const Metric &metric : layers)
        printMetric(metric);
    if (!options.spansOut.empty() && !bestTracer.write(options.spansOut)) {
        std::fprintf(stderr, "cannot write spans to %s\n",
                     options.spansOut.c_str());
        return 1;
    }
    printJson(correct, attempted, failed, layers);
    return correct ? 0 : 1;
}

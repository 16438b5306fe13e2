/**
 * @file
 * Service-level chaos harness: the serving robustness contracts under
 * seeded fault pressure.
 *
 * Beyond the paper: Sec. 7 assumes the deployed pool simply works;
 * a serving deployment sees stalled workers, delayed batches,
 * transiently failing detectors, live pool promotions, and poisoned
 * promotion candidates — often all at once. This harness drives
 * serve::DetectionService through exactly that (serve::ChaosConfig,
 * riding the PR-1 fault-injection machinery) and asserts, fatally:
 *
 *  1. Determinism under chaos: every admitted request's decisions are
 *     bit-identical to a serial replay keyed by (seed, request key,
 *     pool version), with worker stalls, batch delays, and keyed
 *     transient score faults all active, across a mid-load hot swap.
 *  2. Gated promotion: a poisoned candidate (provably weaker PAC
 *     floor) and a null candidate are rejected under live traffic
 *     with zero disruption; a healthy candidate promotes with zero
 *     dropped or erroneous (non-shed) requests.
 *  3. Full shed accounting: drained admission/breaker/degradation
 *     scenarios land every shed and degraded request in exactly one
 *     serve.* metric, and requests == responses + sheds + degraded +
 *     expected exhaustion failures over the whole run.
 *  4. A p99 latency SLO from bench/baseline.json
 *     ("serve_chaos_p99_micros") — a catastrophic serving regression
 *     (lost wakeup, deadlocked swap) fails the bench, not just a
 *     trend chart.
 *
 * The deterministic table (requests, decisions hash, fault and shed
 * counts, swap outcomes) is recorded for the cross-thread bench diff;
 * worker counts and chaos seeds are fixed, never tied to --threads.
 */

#include "bench_common.hh"

#include <algorithm>
#include <map>

#include "core/pac.hh"
#include "serve/service.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::bench;

/**
 * The service's failover-stream derivation and attempt budget,
 * mirrored for serial replay (the DESIGN.md section 12 replay
 * contract; tests/test_serve_swap.cc carries the same mirror).
 */
constexpr std::uint64_t kFailoverSalt = 0xfa170f32c001d00dULL;
constexpr std::size_t kMaxFailoverAttempts = 64;

/**
 * Serial replay of the full serving pipeline for one request —
 * switching stream, keyed chaos faults, failover redraws — against
 * one pool version with quarantine disabled. What the service must
 * answer for (key, version) under any schedule.
 */
std::vector<int>
replayWithChaos(const core::Rhmd &pool, std::uint64_t seed,
                const serve::ChaosInjector &chaos,
                const features::ProgramFeatures &prog, std::uint64_t key)
{
    const std::uint32_t epoch_len = pool.decisionPeriod();
    const std::size_t n_epochs = prog.windows(epoch_len).size();
    Rng switching = SplitRng(seed).at(key);
    const SplitRng failover(seed ^ kFailoverSalt);
    std::vector<int> out;
    for (std::size_t e = 0; e < n_epochs; ++e) {
        const std::size_t pick =
            switching.weightedIndex(pool.policy());
        const core::Hmd &det = *pool.detectors()[pick];
        const std::size_t index =
            e * (epoch_len / det.decisionPeriod());
        const double score =
            det.windowScore(prog.windows(det.decisionPeriod())[index]);
        if (!chaos.scoreFault(key, e, pick)) {
            out.push_back(score >= det.threshold() ? 1 : 0);
            continue;
        }
        Rng redraw = SplitRng(failover.seedAt(key)).at(e);
        for (std::size_t attempt = 0; attempt < kMaxFailoverAttempts;
             ++attempt) {
            const std::size_t repick =
                redraw.weightedIndex(pool.policy());
            const core::Hmd &alt = *pool.detectors()[repick];
            const std::size_t alt_index =
                e * (epoch_len / alt.decisionPeriod());
            const double alt_score = alt.windowScore(
                prog.windows(alt.decisionPeriod())[alt_index]);
            if (chaos.scoreFault(key, e, repick))
                continue;
            out.push_back(alt_score >= alt.threshold() ? 1 : 0);
            break;
        }
    }
    return out;
}

std::uint64_t
serveCounter(const char *name)
{
    return support::metrics().counterValue(name);
}

/** Snapshot of every serve.* counter the accounting identity needs. */
struct ServeLedger
{
    std::uint64_t requests = serveCounter("serve.requests");
    std::uint64_t responses = serveCounter("serve.responses");
    std::uint64_t shedQueueFull = serveCounter("serve.shed_queue_full");
    std::uint64_t shedDeadline = serveCounter("serve.shed_deadline");
    std::uint64_t shedDeadlineSubmit =
        serveCounter("serve.shed_deadline_submit");
    std::uint64_t shedStopped = serveCounter("serve.shed_stopped");
    std::uint64_t shedQuota = serveCounter("serve.shed_quota");
    std::uint64_t shedCircuitOpen =
        serveCounter("serve.shed_circuit_open");
    std::uint64_t failOpen = serveCounter("serve.fail_open");
    std::uint64_t failClosed = serveCounter("serve.fail_closed");
    std::uint64_t detectorFailures =
        serveCounter("serve.detector_failures");
    std::uint64_t malwareFlagged =
        serveCounter("serve.malware_flagged");
    std::uint64_t swapAttempts = serveCounter("serve.swap_attempts");
    std::uint64_t swapAccepted = serveCounter("serve.swap_accepted");
    std::uint64_t swapRejected = serveCounter("serve.swap_rejected");

    std::uint64_t shedTotal() const
    {
        return shedQueueFull + shedDeadline + shedDeadlineSubmit +
               shedStopped + shedQuota + shedCircuitOpen;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Service chaos harness: hot swap, admission, degradation "
           "under seeded faults",
           "beyond the paper; cf. Sec. 7 always-on deployment");

    const core::Experiment exp =
        core::Experiment::build(benchConfig("serve"));

    std::vector<features::FeatureSpec> specs;
    specs.push_back(spec(features::FeatureKind::Instructions, 10000));
    specs.push_back(spec(features::FeatureKind::Memory, 10000));
    specs.push_back(spec(features::FeatureKind::Architectural, 5000));
    const auto pool = core::buildRhmd("LR", specs, exp.corpus(),
                                      exp.split().victimTrain, 16, 2017);
    // An identically-trained rebuild: the healthy promotion candidate.
    // Identical detectors mean decisions are version-independent, so
    // the deterministic table cannot depend on when the swap lands.
    const std::shared_ptr<const core::Rhmd> twin =
        core::buildRhmd("LR", specs, exp.corpus(),
                        exp.split().victimTrain, 16, 2017);
    // The poisoned candidate: structurally valid, but one detector
    // means deterministic selection — Theorem-1 floor exactly zero.
    const std::shared_ptr<const core::Rhmd> poisoned = core::buildRhmd(
        "LR", {spec(features::FeatureKind::Instructions, 10000)},
        exp.corpus(), exp.split().victimTrain, 16, 2017);
    {
        const core::PacReport cur = core::computePac(
            *pool, exp.corpus(), exp.split().attackerTest);
        fatal_if(cur.lowerBound <= 0.0,
                 "serving pool has a zero PAC floor; the poisoned-swap "
                 "scenario cannot distinguish candidates");
    }

    const std::size_t total_requests = smoke() ? 240 : 960;
    const auto &programs = exp.corpus().programs;
    std::vector<const features::ProgramFeatures *> reqs;
    reqs.reserve(total_requests);
    for (std::size_t i = 0; i < total_requests; ++i)
        reqs.push_back(&programs[i % programs.size()]);

    const ServeLedger before;

    // ---- Phase 1: chaos load with a mid-load gated hot swap --------
    serve::ServeConfig sc;
    sc.workers = 4; // fixed: never tied to --threads
    sc.maxBatch = 16;
    sc.queueCapacity = total_requests;
    sc.seed = 0x5e12f1ce;
    // Quarantine disabled: transient faults burn failover attempts,
    // never policy weight, so the effective policy — and with it the
    // determinism domain — stays pinned to (key, pool version).
    sc.health.failureThreshold = 1u << 20;
    sc.chaos.transientScoreFaultProb = 0.15;
    sc.chaos.workerStallProb = 0.05;
    sc.chaos.workerStallMicros = 100;
    sc.chaos.batchDelayProb = 0.05;
    sc.chaos.batchDelayMicros = 100;
    sc.gate.corpus = &exp.corpus();
    sc.gate.testIdx = exp.split().attackerTest;
    const serve::ChaosInjector replay_chaos(sc.chaos);

    std::uint64_t decision_hash = 0xcbf29ce484222325ULL;
    std::size_t classified = 0, malware_flagged = 0;
    std::size_t version_old = 0, version_new = 0;
    std::vector<double> latencies;
    double p50 = 0.0, p99 = 0.0;
    {
        serve::DetectionService service(*pool, sc);
        std::vector<std::future<support::StatusOr<serve::ServeReport>>>
            futures;
        std::vector<std::chrono::steady_clock::time_point> submitted;
        futures.reserve(reqs.size());
        submitted.reserve(reqs.size());

        for (std::size_t i = 0; i < reqs.size(); ++i) {
            if (i == reqs.size() / 2) {
                // Make sure version 1 actually served traffic before
                // promoting: on a cold service the gate can finish
                // before the workers' first batch is even planned.
                futures[0].wait();
                // Under live traffic: two poisoned promotions must be
                // rejected without touching the serving version, then
                // the healthy twin promotes to version 2.
                fatal_if(service.swapPool(nullptr).isOk(),
                         "null candidate accepted at the gate");
                const auto rejected = service.swapPool(poisoned);
                fatal_if(rejected.isOk(),
                         "poisoned candidate (PAC floor 0) accepted "
                         "at the gate");
                fatal_if(service.poolVersion() != 1,
                         "rejected promotion disturbed the serving "
                         "version");
                const auto accepted = service.swapPool(twin);
                fatal_if(!accepted.isOk(), "healthy promotion failed: ",
                         accepted.status().toString());
                fatal_if(*accepted != 2, "unexpected promoted version");
            }
            submitted.push_back(std::chrono::steady_clock::now());
            futures.push_back(service.submit(*reqs[i], i));
        }

        for (std::size_t i = 0; i < reqs.size(); ++i) {
            auto report = futures[i].get();
            latencies.push_back(
                std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - submitted[i])
                    .count() *
                1e6);
            // The promotion contract: zero dropped or erroneous
            // non-shed requests, swap or no swap.
            fatal_if(!report.isOk(), "request ", i,
                     " failed under chaos: ",
                     report.status().toString());
            fatal_if(report->degraded,
                     "request ", i, " degraded with a healthy pool");
            (report->poolVersion == 1 ? version_old : version_new) += 1;
            const std::vector<int> expected = replayWithChaos(
                *pool, sc.seed, replay_chaos, *reqs[i], i);
            fatal_if(report->decisions != expected,
                     "request ", i, " (pool version ",
                     report->poolVersion,
                     ") diverged from its keyed replay — the chaos "
                     "schedule leaked into the decisions");
            decision_hash = hashDecisions(decision_hash, expected);
            classified += expected.size();
            malware_flagged += report->programDecision == 1 ? 1 : 0;
        }
        std::sort(latencies.begin(), latencies.end());
        p50 = latencies[latencies.size() / 2];
        p99 = latencies[latencies.size() * 99 / 100];
        // Both sides of the promotion carried traffic: requests
        // resolved before the swap report version 1, requests
        // submitted after it report version 2.
        fatal_if(version_old == 0 || version_new == 0,
                 "hot swap did not overlap live traffic (v1 served ",
                 version_old, ", v2 served ", version_new, ")");
    }
    const ServeLedger after_chaos;
    fatal_if(after_chaos.shedTotal() != before.shedTotal() ||
                 after_chaos.failOpen != before.failOpen ||
                 after_chaos.failClosed != before.failClosed,
             "chaos load shed or degraded requests despite full "
             "queue capacity");
    fatal_if(after_chaos.responses - before.responses != total_requests,
             "response accounting mismatch under chaos");

    // ---- Phase 2: drained shed-accounting scenarios ----------------
    // Serial, single-worker services; every shed and degraded request
    // must land in exactly one serve.* bucket.

    // Tenant quota exhaustion (no refill: exactly burst admissions).
    {
        serve::ServeConfig qc;
        qc.workers = 1;
        qc.admission.enabled = true;
        qc.admission.quota.ratePerSecond = 0.0;
        qc.admission.quota.burst = 2.0;
        serve::DetectionService service(*pool, qc);
        std::vector<std::future<support::StatusOr<serve::ServeReport>>>
            futures;
        for (std::uint64_t key = 0; key < 5; ++key)
            futures.push_back(service.submit(*reqs[0], key));
        std::size_t shed = 0;
        for (auto &future : futures)
            shed += future.get().isOk() ? 0 : 1;
        fatal_if(shed != 3, "expected 3 quota sheds, saw ", shed);
    }

    // Breaker: deadline sheds trip it, then it sheds at submit.
    {
        serve::ServeConfig bc;
        bc.workers = 1;
        bc.deadlineSeconds = 1e-12;
        bc.breaker.enabled = true;
        bc.breaker.failureThreshold = 2;
        // backoffDelay caps every cool-down at kMaxBackoff (64 s):
        // the scenario ends inside that first cool-down.
        bc.breaker.cooldown.initialBackoff = support::kMaxBackoff;
        serve::DetectionService service(*pool, bc);
        for (std::uint64_t key = 0; key < 3; ++key)
            fatal_if(service.submit(*reqs[0], key).get().isOk(),
                     "request served despite an expired deadline");
        fatal_if(service.breakerState() !=
                     serve::CircuitBreaker::State::Open,
                 "breaker still closed after a shed burst");
    }

    // Shutdown shedding is its own bucket, not overload.
    std::size_t exhausted = 0; // expected no-classification failures
    {
        serve::DetectionService service(*pool, serve::ServeConfig{});
        service.stop();
        fatal_if(service.submit(*reqs[0], 0).get().isOk(),
                 "request served after stop()");
    }

    // Full-pool quarantine: fail-open answers degraded, fail-closed
    // rejects; the request that burns the pool down is the expected
    // exhaustion failure either way.
    for (const bool fail_open : {true, false}) {
        serve::ServeConfig dc;
        dc.workers = 1;
        dc.failOpen = fail_open;
        dc.health.failureThreshold = 1;
        dc.health.quarantineEpochs = 1u << 20;
        dc.chaos.brokenDetectors = {0, 1, 2};
        serve::DetectionService service(*pool, dc);
        fatal_if(service.submit(*reqs[0], 0).get().isOk(),
                 "request classified with every detector broken");
        ++exhausted;
        const auto second = service.submit(*reqs[0], 1).get();
        if (fail_open) {
            fatal_if(!second.isOk() || !second->degraded,
                     "fail-open did not answer a degraded report");
        } else {
            fatal_if(second.isOk(),
                     "fail-closed answered from a quarantined pool");
        }
    }

    // ---- Accounting identity over the whole run --------------------
    const ServeLedger after;
    const std::uint64_t requests = after.requests - before.requests;
    const std::uint64_t answered = after.responses - before.responses;
    const std::uint64_t sheds = after.shedTotal() - before.shedTotal();
    const std::uint64_t degraded = after.failOpen - before.failOpen;
    const std::uint64_t rejected_closed =
        after.failClosed - before.failClosed;
    fatal_if(requests != answered + sheds + degraded + rejected_closed +
                             exhausted,
             "serve.* accounting leak: ", requests, " requests vs ",
             answered, " responses + ", sheds, " sheds + ", degraded,
             " fail-open + ", rejected_closed, " fail-closed + ",
             exhausted, " exhaustion failures");

    // ---- p99 SLO vs baseline ---------------------------------------
    std::printf("chaos-load latency: p50 %.1fus, p99 %.1fus over %zu "
                "requests (pool v1 served %zu, v2 served %zu)\n",
                p50, p99, total_requests, version_old, version_new);
    const double slo =
        bench::detail::serialBaselineSeconds("serve_chaos_p99_micros");
    if (slo > 0.0) {
        fatal_if(p99 > slo, "p99 latency ", p99,
                 "us exceeds the serve_chaos_p99_micros SLO of ", slo,
                 "us");
        std::printf("p99 within SLO (%.0fus)\n", slo);
    } else {
        std::printf("no serve_chaos_p99_micros SLO found; latency "
                    "unchecked\n");
    }

    // ---- Deterministic table (recorded for the cross-thread diff) --
    std::printf("\ndeterministic chaos-serving results\n");
    Table det({"requests", "classified", "malware_flagged",
               "detector_failures", "decision_hash", "swap_accepted",
               "swap_rejected", "shed_quota", "shed_deadline",
               "shed_circuit_open", "shed_stopped", "fail_open",
               "fail_closed"});
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                  static_cast<unsigned long long>(decision_hash));
    det.addRow(
        {std::to_string(total_requests), std::to_string(classified),
         std::to_string(malware_flagged),
         std::to_string(after.detectorFailures -
                        before.detectorFailures),
         hash_hex,
         std::to_string(after.swapAccepted - before.swapAccepted),
         std::to_string(after.swapRejected - before.swapRejected),
         std::to_string(after.shedQuota - before.shedQuota),
         std::to_string(after.shedDeadline - before.shedDeadline),
         std::to_string(after.shedCircuitOpen -
                        before.shedCircuitOpen),
         std::to_string(after.shedStopped - before.shedStopped),
         std::to_string(degraded), std::to_string(rejected_closed)});
    emitTable(det);

    return bench::finish();
}

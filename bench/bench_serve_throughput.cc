/**
 * @file
 * Serving throughput: request rate and queueing latency of the
 * batched detection service across batch sizes and worker counts.
 *
 * Beyond the paper: Sec. 7 deploys RHMD as always-on hardware; a
 * software deployment instead serves classification requests from
 * concurrent clients. This harness pushes one request per corpus
 * program (repeated to a fixed request count) through
 * serve::DetectionService at batch sizes 1/16/64 with 1 worker and
 * with the full thread budget, and reports req/sec plus p50/p99
 * submit-to-resolve latency. The deterministic check: per-request
 * decisions are derived from (seed, request key) alone, so every
 * (batch size, worker count) cell must produce byte-identical
 * decisions — that table is recorded for the bench-regression diff,
 * while the timing table is printed only (wall-clock numbers are not
 * reproducible).
 */

#include "bench_common.hh"

#include <algorithm>

#include "serve/service.hh"

namespace
{

using namespace rhmd;
using namespace rhmd::bench;

struct CellResult
{
    std::size_t workers = 0;
    std::size_t maxBatch = 0;
    double wallSeconds = 0.0;
    double p50Micros = 0.0;
    double p99Micros = 0.0;
    std::uint64_t decisionHash = 0;
    std::size_t malwareFlagged = 0;
    std::size_t classified = 0;
    std::uint64_t poolVersion = 0;
};

/** Sum of every serve.shed_* counter (all shedding layers). */
std::uint64_t
totalSheds()
{
    std::uint64_t total = 0;
    for (const char *name :
         {"serve.shed_queue_full", "serve.shed_deadline",
          "serve.shed_stopped", "serve.shed_quota",
          "serve.shed_circuit_open"}) {
        total += support::metrics().counterValue(name);
    }
    return total;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::init(argc, argv);
    banner("Serving throughput: batched detection service",
           "beyond the paper; cf. Sec. 7 always-on deployment");

    // Serving requests are small — a few epochs each, like windows
    // streamed off live hardware — so the per-batch overheads being
    // amortized are visible against the scoring work.
    const core::Experiment exp =
        core::Experiment::build(benchConfig("serve"));

    // A three-family pool at two periods, as deployed elsewhere.
    std::vector<features::FeatureSpec> specs;
    specs.push_back(spec(features::FeatureKind::Instructions, 10000));
    specs.push_back(spec(features::FeatureKind::Memory, 10000));
    specs.push_back(spec(features::FeatureKind::Architectural, 5000));
    const auto pool = core::buildRhmd("LR", specs, exp.corpus(),
                                      exp.split().victimTrain, 16, 2017);

    // Fixed request load: every corpus program, repeated round-robin.
    // The request key is the request index, so decisions replay
    // identically in every cell.
    const std::size_t total_requests = smoke() ? 240 : 960;
    const auto &programs = exp.corpus().programs;
    std::vector<const features::ProgramFeatures *> reqs;
    reqs.reserve(total_requests);
    for (std::size_t i = 0; i < total_requests; ++i)
        reqs.push_back(&programs[i % programs.size()]);

    const std::size_t max_workers = std::max<std::size_t>(
        bench::session().threads, 1);
    const std::uint64_t sheds_before = totalSheds();
    std::vector<CellResult> cells;
    for (std::size_t workers : {std::size_t{1}, max_workers}) {
        for (std::size_t batch : {1u, 16u, 64u}) {
            serve::ServeConfig sc;
            sc.workers = workers;
            sc.maxBatch = batch;
            // Capacity covers the whole load and the deadline is off:
            // this bench measures throughput, not shedding, and any
            // shed request would perturb the deterministic table.
            sc.queueCapacity = total_requests;
            sc.deadlineSeconds = 0.0;
            sc.seed = 0x5e12f1ce;
            serve::DetectionService service(*pool, sc);

            CellResult cell;
            cell.workers = workers;
            cell.maxBatch = batch;

            // Concurrent producers, so the offered load exceeds what
            // one submitting thread can generate (otherwise every
            // batched cell just measures the producer). The count is
            // fixed — not tied to --threads — so the load pattern is
            // identical in every run. Each producer submits its whole
            // interleaved slice, then collects it; results land in
            // per-request slots so the later hash is in request-index
            // order regardless of completion order.
            struct RunResult
            {
                double wallSeconds = 0.0;
                std::vector<double> latencies;
                std::vector<std::vector<int>> decisions;
                std::vector<int> verdicts;
                std::vector<std::uint64_t> versions;
            };
            const auto runLoad = [&] {
                const std::size_t n_producers = 4;
                RunResult run;
                run.decisions.resize(reqs.size());
                run.verdicts.assign(reqs.size(), 0);
                run.versions.assign(reqs.size(), 0);
                std::vector<std::vector<double>> producerLat(
                    n_producers);
                std::vector<std::thread> producers;
                producers.reserve(n_producers);
                const auto t0 = std::chrono::steady_clock::now();
                for (std::size_t p = 0; p < n_producers; ++p) {
                    producers.emplace_back([&, p] {
                        std::vector<std::pair<
                            std::size_t,
                            std::future<
                                support::StatusOr<serve::ServeReport>>>>
                            futures;
                        std::vector<
                            std::chrono::steady_clock::time_point>
                            submitted;
                        for (std::size_t i = p; i < reqs.size();
                             i += n_producers) {
                            submitted.push_back(
                                std::chrono::steady_clock::now());
                            futures.emplace_back(
                                i, service.submit(*reqs[i], i));
                        }
                        for (std::size_t k = 0; k < futures.size();
                             ++k) {
                            auto report = futures[k].second.get();
                            producerLat[p].push_back(
                                std::chrono::duration<double>(
                                    std::chrono::steady_clock::now() -
                                    submitted[k])
                                    .count() *
                                1e6);
                            if (!report.isOk())
                                rhmd_fatal("request ",
                                           futures[k].first,
                                           " failed: ",
                                           report.status().toString());
                            run.decisions[futures[k].first] =
                                std::move(report->decisions);
                            run.verdicts[futures[k].first] =
                                report->programDecision;
                            run.versions[futures[k].first] =
                                report->poolVersion;
                        }
                    });
                }
                for (std::thread &producer : producers)
                    producer.join();
                run.wallSeconds =
                    std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
                for (const std::vector<double> &lat : producerLat)
                    run.latencies.insert(run.latencies.end(),
                                         lat.begin(), lat.end());
                std::sort(run.latencies.begin(), run.latencies.end());
                return run;
            };

            // Best of three passes: the first run through a fresh
            // service pays allocator and cache warmup that is not the
            // steady state a serving deployment sees, and on a small
            // container the producer threads contend with the worker
            // for cores, so single runs are noisy.
            RunResult best = runLoad();
            for (int pass = 0; pass < 2; ++pass) {
                RunResult next = runLoad();
                if (next.wallSeconds < best.wallSeconds)
                    best = std::move(next);
            }

            cell.wallSeconds = best.wallSeconds;
            cell.decisionHash = 0xcbf29ce484222325ULL;
            cell.poolVersion = best.versions.front();
            for (std::size_t i = 0; i < reqs.size(); ++i) {
                cell.decisionHash =
                    hashDecisions(cell.decisionHash, best.decisions[i]);
                cell.classified += best.decisions[i].size();
                cell.malwareFlagged += best.verdicts[i] == 1 ? 1 : 0;
                fatal_if(best.versions[i] != cell.poolVersion,
                         "pool version changed without a swap");
            }
            cell.p50Micros = best.latencies[best.latencies.size() / 2];
            cell.p99Micros =
                best.latencies[best.latencies.size() * 99 / 100];
            cells.push_back(cell);
        }
    }

    // Every cell must have produced the same decisions: the service's
    // determinism contract (DESIGN.md §11) is that batch size and
    // worker count change the schedule, never the answers.
    for (const CellResult &cell : cells) {
        fatal_if(cell.decisionHash != cells.front().decisionHash ||
                     cell.malwareFlagged != cells.front().malwareFlagged,
                 "serve decisions diverged at workers=", cell.workers,
                 " batch=", cell.maxBatch,
                 " — batch composition leaked into the switching "
                 "stream");
    }

    // Timing table: printed but NOT recorded — wall-clock numbers
    // differ run to run and would fail the bench-regression diff.
    std::printf("throughput by (workers, batch size): %zu requests\n",
                total_requests);
    Table timing({"workers", "batch", "req/s", "p50_us", "p99_us"});
    double batch1_rate = 0.0;
    double batch64_rate = 0.0;
    for (const CellResult &cell : cells) {
        const double rate =
            static_cast<double>(total_requests) / cell.wallSeconds;
        if (cell.workers == max_workers && cell.maxBatch == 1)
            batch1_rate = rate;
        if (cell.workers == max_workers && cell.maxBatch == 64)
            batch64_rate = rate;
        timing.addRow({std::to_string(cell.workers),
                       std::to_string(cell.maxBatch),
                       Table::cell(rate, 0), Table::cell(cell.p50Micros, 1),
                       Table::cell(cell.p99Micros, 1)});
    }
    timing.print(std::cout);
    std::printf("\nbatch-64 vs batch-1 speedup at %zu workers: %.2fx\n",
                max_workers,
                batch1_rate > 0.0 ? batch64_rate / batch1_rate : 0.0);

    // Deterministic table: identical in every cell (asserted above),
    // so record it once for the cross-thread bench diff. The shed
    // column must be zero — capacity covers the whole load — and the
    // pool version is 1 throughout (this bench never swaps); both are
    // recorded so a shedding or versioning regression breaks the diff.
    std::printf("\ndeterministic serving results (all cells equal)\n");
    Table det({"requests", "classified", "malware_flagged",
               "decision_hash", "sheds", "pool_version"});
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                  static_cast<unsigned long long>(
                      cells.front().decisionHash));
    det.addRow({std::to_string(total_requests),
                std::to_string(cells.front().classified),
                std::to_string(cells.front().malwareFlagged), hash_hex,
                std::to_string(totalSheds() - sheds_before),
                std::to_string(cells.front().poolVersion)});
    emitTable(det);

    return bench::finish();
}

/**
 * @file
 * Workload "serve": closed-loop traffic through
 * serve::DetectionService.
 *
 * Set-up extracts a 180-program, 40k-instruction corpus (the "serve"
 * preset at smoke size) and trains the paper's most diverse Sec. 7
 * pool: LR detectors on Instructions, Memory and Architectural
 * features at 5k and 10k periods. The service runs with its default
 * settings and one worker. One client thread keeps kWindow requests
 * in flight; each request carries one corpus program's windows under
 * a fresh key, so no simulation or training runs in the timed path.
 */

#include <algorithm>
#include <future>
#include <memory>

#include "core/rhmd.hh"
#include "corpus/cache.hh"
#include "serve/service.hh"
#include "stats.hh"
#include "support/rng.hh"
#include "workload.hh"

namespace perfbench
{

namespace
{

using namespace rhmd;

/** Requests per rep: enough for 40 samples beyond the p99. */
constexpr std::size_t kRequests = 4096;
/** Requests the client keeps in flight (closed loop). */
constexpr std::size_t kWindow = 64;

class Serve final : public Workload
{
  public:
    explicit Serve(std::uint64_t seed) : keys_(seed ^ 0x5e2fe5ULL) {}

    void setup() override
    {
        exp_ = std::make_unique<core::Experiment>(
            core::Experiment::build(corpus::presetConfig("serve", true)));
        pool_ = buildPool();
        serve::ServeConfig config;
        config.workers = 1;
        config.queueCapacity = std::max(config.queueCapacity, kWindow);
        service_ = std::make_unique<serve::DetectionService>(pool_, config);
    }

    void teardown() override
    {
        service_.reset();  // joins the worker before the pool goes
        twin_.reset();
        pool_.reset();
        exp_.reset();
    }

    RepResult runRep(std::uint32_t index, Tracer *tracer) override
    {
        std::vector<std::uint64_t> keys;
        const std::vector<const features::ProgramFeatures *> programs =
            requests(index, keys);
        std::vector<ServedDecision> served(kRequests);
        std::vector<double> latencyUs(kRequests);
        struct Slot
        {
            std::future<support::StatusOr<serve::ServeReport>> future;
            Clock::time_point submitted;
        };
        std::vector<Slot> slots(kWindow);
        const auto submit = [&](std::size_t i) {
            SpanScope span(tracer, "serve.submit", index, keys[i]);
            Slot &slot = slots[i % kWindow];
            slot.submitted = Clock::now();
            slot.future = service_->submit(*programs[i], keys[i]);
        };

        RepResult result;
        RepClock clock(tracer, index);
        for (std::size_t i = 0; i < std::min(kWindow, kRequests); ++i)
            submit(i);
        for (std::size_t done = 0; done < kRequests; ++done) {
            {
                // Blocking on the oldest request and taking its report.
                SpanScope span(tracer, "serve.wait", index, keys[done]);
                Slot &slot = slots[done % kWindow];
                support::StatusOr<serve::ServeReport> report =
                    slot.future.get();
                latencyUs[done] = std::chrono::duration<double, std::micro>(
                                      Clock::now() - slot.submitted)
                                      .count();
                ServedDecision &answer = served[done];
                answer.key = keys[done];
                answer.ok = report.isOk();
                if (answer.ok) {
                    answer.decisions = std::move(report->decisions);
                    answer.programDecision = report->programDecision;
                }
            }
            if (done + kWindow < kRequests)
                submit(done + kWindow);
        }
        result.seconds = clock.stop();

        result.digest = digestServeRep(served);
        result.attempted = kRequests;
        for (const ServedDecision &answer : served)
            result.failed += answer.ok ? 0 : 1;
        std::sort(latencyUs.begin(), latencyUs.end());
        result.p50Us = percentile(latencyUs, 50.0).value_or(0.0);
        result.p99Us = percentile(latencyUs, 99.0).value_or(0.0);
        return result;
    }

    void probe(std::uint32_t index, Tracer &tracer) override
    {
        std::vector<std::uint64_t> keys;
        const std::vector<const features::ProgramFeatures *> programs =
            requests(index, keys);
        for (const std::unique_ptr<core::Hmd> &detector :
             pool_->detectors()) {
            std::vector<const features::RawWindow *> windows;
            for (const features::ProgramFeatures *program : programs) {
                for (const features::RawWindow &window :
                     program->windows(detector->decisionPeriod()))
                    windows.push_back(&window);
            }
            SpanScope span(&tracer, "ml.score", index);
            const std::vector<double> scores =
                detector->scoreWindows(windows);
            span.setUnits(scores.size());
        }
        if (twin_ == nullptr)
            twin_ = buildPool();
        SpanScope span(&tracer, "core.decide_batch", index);
        twin_->decideBatch(programs);
        span.setUnits(programs.size());
    }

    std::uint32_t checkedReps() const override { return 4; }

    std::vector<Metric> summarize(double rep_seconds,
                                  const std::vector<RepResult> &reps)
        const override
    {
        double p50 = reps.front().p50Us;
        double p99 = reps.front().p99Us;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        for (const RepResult &rep : reps) {
            p50 = std::min(p50, rep.p50Us);
            p99 = std::min(p99, rep.p99Us);
            attempted += rep.attempted;
            failed += rep.failed;
        }
        return {
            {"req_per_s", "1/s",
             static_cast<double>(kRequests) / rep_seconds},
            {"p50_us", "us", p50},
            {"p99_us", "us", p99},
            {"latency_samples_per_rep", "count",
             static_cast<double>(kRequests)},
            {"samples_beyond_p99", "count",
             static_cast<double>(samplesBeyond(kRequests, 99.0))},
            {"fail_frac", "ratio",
             static_cast<double>(failed) / static_cast<double>(attempted)},
        };
    }

  private:
    std::shared_ptr<core::Rhmd> buildPool() const
    {
        std::vector<features::FeatureSpec> specs;
        for (features::FeatureKind kind :
             {features::FeatureKind::Instructions,
              features::FeatureKind::Memory,
              features::FeatureKind::Architectural}) {
            for (std::uint32_t period : {5000U, 10000U}) {
                features::FeatureSpec spec;
                spec.kind = kind;
                spec.period = period;
                specs.push_back(spec);
            }
        }
        return core::buildRhmd("LR", specs, exp_->corpus(),
                               exp_->split().victimTrain, 16, 2017);
    }

    /** Rep @p index's programs, and their request keys in @p keys. */
    std::vector<const features::ProgramFeatures *>
    requests(std::uint32_t index, std::vector<std::uint64_t> &keys) const
    {
        const std::vector<features::ProgramFeatures> &corpus =
            exp_->corpus().programs;
        std::vector<const features::ProgramFeatures *> programs(kRequests);
        keys.resize(kRequests);
        for (std::size_t i = 0; i < kRequests; ++i) {
            keys[i] = keys_.seedAt(std::uint64_t{index} * kRequests + i);
            programs[i] = &corpus[keys[i] % corpus.size()];
        }
        return programs;
    }

    SplitRng keys_;
    std::unique_ptr<core::Experiment> exp_;
    std::shared_ptr<core::Rhmd> pool_;
    std::shared_ptr<core::Rhmd> twin_;  ///< probe replica for decideBatch
    std::unique_ptr<serve::DetectionService> service_;
};

} // namespace

std::unique_ptr<Workload>
makeServe(std::uint64_t seed)
{
    return std::make_unique<Serve>(seed);
}

} // namespace perfbench

/**
 * @file
 * Batched detection service: the request-at-a-time serving front end
 * over a resilient, hot-swappable detector pool.
 *
 * Rhmd::decideBatch() assumes one caller handing it a prepared list
 * of programs; a deployment instead sees concurrent callers each
 * submitting one program and expecting an answer (or a fast
 * rejection) under load. DetectionService provides that boundary: a
 * bounded multi-producer queue admits requests, worker threads drain
 * them in batches, each batch is scored through the pool's batch APIs
 * (Hmd::scoreWindows grouped per selected detector), and invalid
 * scores feed the HealthMonitor, with failover redraws and
 * quarantine-aware policy renormalization. It is the only deployment
 * front end: a faulty sensor path is modelled upstream of it, by
 * submitting the stream runtime::FaultInjector::sense() delivers.
 *
 * The pool is no longer a borrowed reference pinned for the service's
 * lifetime: a serve::PoolManager publishes versioned snapshots, each
 * worker batch plans against the snapshot current at drain time, and
 * swapPool() promotes a retrained candidate under live traffic —
 * in-flight batches finish on the version they started with (the
 * snapshot shared_ptr is the RCU epoch), the version is stamped into
 * every ServeReport, and promotion is gated on the pool invariants
 * plus the PAC reverse-engineering floor (DESIGN.md §12).
 *
 * Load shedding is layered, every layer explicit and separately
 * counted: a stopped service sheds at submit (serve.shed_stopped), an
 * open circuit breaker sheds before any queueing work
 * (serve.shed_circuit_open), per-tenant token buckets and fair-share
 * admission shed abusive tenants (serve.shed_quota), a full queue
 * sheds with backpressure (serve.shed_queue_full), and a configured
 * deadline sheds expired requests at both queue boundaries: a full
 * queue first evicts requests whose wait already blew the budget so
 * dead work stops occupying capacity live requests would be rejected
 * for (serve.shed_deadline_submit), and workers shed what expired by
 * pop time before any batch is planned (serve.shed_deadline). When
 * the entire pool is quarantined the service takes the configured
 * fail-open (degraded benign pass-through) or fail-closed
 * (Unavailable) decision.
 *
 * A shadow lane supports online retraining (DESIGN.md §16): when a
 * candidate pool is installed with installShadow(), every live
 * request that produced a classification is additionally scored
 * against the candidate — same per-key switching stream, no health
 * coupling, never touching the caller's reply — and the running
 * live-vs-candidate agreement is readable through shadowStats(). The
 * pipeline promotes through swapPool() only after the shadow lane
 * has seen enough live traffic.
 *
 * Determinism (DESIGN.md §11/§12): per-request switching randomness
 * is derived from (service seed, caller-supplied request key) with
 * SplitRng, never from a shared sequential stream, so for a fixed
 * pool version a request's decisions are independent of arrival
 * order, batch composition, worker count, and swap timing. The
 * determinism domain is (request key, pool version): with a healthy
 * snapshot the answer is bit-identical to a serial replay against
 * that version — and stays so under chaos, because service-level
 * score faults are keyed off the same coordinates (serve/chaos.hh).
 */

#ifndef RHMD_SERVE_SERVICE_HH
#define RHMD_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/rhmd.hh"
#include "runtime/health.hh"
#include "serve/admission.hh"
#include "serve/chaos.hh"
#include "serve/pool_manager.hh"
#include "support/bounded_queue.hh"
#include "support/rng.hh"
#include "support/status.hh"

namespace rhmd::serve
{

/** Serving deployment parameters. */
struct ServeConfig
{
    /** Worker threads draining the request queue; 0 resolves like
     *  support::resolveThreadCount. */
    std::size_t workers = 1;

    /** Maximum requests scored in one batch pass. */
    std::size_t maxBatch = 16;

    /** Bounded request-queue capacity (backpressure depth). */
    std::size_t queueCapacity = 256;

    /**
     * Queueing-delay budget in seconds; requests that waited longer
     * are shed with Unavailable before scoring. 0 disables.
     */
    double deadlineSeconds = 0.0;

    /** Degradation policy for failing detectors (per pool version). */
    runtime::HealthConfig health{};

    /** Per-tenant quotas and fair-share admission (off by default). */
    AdmissionConfig admission{};

    /** Service-level circuit breaker (off by default). */
    BreakerConfig breaker{};

    /** Seeded service-level fault injection (off by default). */
    ChaosConfig chaos{};

    /**
     * What to do when every detector of the current snapshot is
     * quarantined: false (fail closed) answers Unavailable — no
     * classification is better than a fabricated one; true (fail
     * open) answers a degraded benign pass-through report so the
     * protected workload keeps running while the pool recovers.
     */
    bool failOpen = false;

    /** PAC promotion gate for swapPool (off when corpus is null). */
    PromotionGate gate{};

    /** Root of the per-request switching streams. */
    std::uint64_t seed = 0x5e12f1ce;
};

/** What serving one request observed. */
struct ServeReport
{
    /** Decision epochs in the program's stream. */
    std::size_t epochs = 0;

    /** Epochs that produced a decision. */
    std::size_t classified = 0;

    /** Invalid detector scores failed over while serving this
     *  request. */
    std::size_t detectorFailures = 0;

    /** Per-epoch decisions (classified epochs only, in order). */
    std::vector<int> decisions;

    /** Majority program-level decision (ties count as malware). */
    int programDecision = 0;

    /**
     * Mean |score - threshold| over the classified epochs: how far
     * from the decision boundary this request's scores sat. Evasive
     * traffic pushed *just* under the threshold collapses this margin
     * while leaving programDecision benign — the drift signal the
     * retraining pipeline watches (DESIGN.md §16). Deterministic per
     * (request key, pool version), like the decisions.
     */
    double meanMargin = 0.0;

    /** Pool version this request was scored against. */
    std::uint64_t poolVersion = 0;

    /**
     * True when the report is a fail-open pass-through (the whole
     * pool was quarantined); decisions is empty and programDecision
     * is benign by policy, not by classification.
     */
    bool degraded = false;
};

/**
 * One request's one-shot answer slot: a block shared with the
 * request's future that holds a mutex, a condition variable and the
 * answer (or an "abandoned" mark). answer() stores under the lock and notifies,
 * which makes a syscall only when the client is asleep on the slot.
 *
 * The future is deferred (std::async(std::launch::deferred, ...))
 * and its function waits on the slot. libstdc++ makes every future
 * state ready through std::call_once, i.e. pthread_once, whose first
 * call always ends in a FUTEX_WAKE syscall; only a deferred state
 * runs it on the consumer, in get(), so the answering worker pays
 * neither that wake nor one for a client that is not waiting
 * (DESIGN.md section 11). Hence the future's contract: get() and
 * wait() block until the slot is answered, while wait_for() and
 * wait_until() return std::future_status::deferred at once.
 *
 * A Reply destroyed unanswered (and not moved from) abandons the
 * slot: the future's get() throws std::future_error with
 * std::future_errc::broken_promise, as for a destroyed promise.
 */
class Reply
{
  public:
    Reply();
    ~Reply();
    Reply(Reply &&other) noexcept = default;
    /** Abandons this reply's own slot if it is unanswered. */
    Reply &operator=(Reply &&other) noexcept;
    Reply(const Reply &) = delete;
    Reply &operator=(const Reply &) = delete;

    /** The slot's future; call it once, before answer(). */
    std::future<support::StatusOr<ServeReport>> future();

    /** Fill the slot and wake its waiter; call it once. */
    void answer(support::StatusOr<ServeReport> value);

  private:
    struct Slot;

    /** Store @p value (nullopt: abandoned), notify, drop the slot. */
    void settle(std::optional<support::StatusOr<ServeReport>> value);

    /** Null once answered or moved from. */
    std::shared_ptr<Slot> slot_;
    bool futureTaken_ = false;
};

/**
 * What the shadow lane observed so far for the installed candidate:
 * live requests replayed against it and how often the candidate's
 * program decision agreed with the serving pool's. The counts are
 * deterministic in the set of (key, program) pairs served while the
 * shadow was active — shadow scoring uses the same per-key switching
 * streams as the live lane, so batch composition and worker count do
 * not affect them.
 */
struct ShadowStats
{
    /** Live requests scored against the candidate. */
    std::size_t requests = 0;

    /** Requests where candidate and live program decisions matched. */
    std::size_t agreements = 0;

    /** Requests the candidate flagged malware. */
    std::size_t shadowMalware = 0;

    /** Requests the live pool flagged malware. */
    std::size_t liveMalware = 0;
};

/**
 * Accepts program-feature scoring requests from any number of
 * producer threads and answers them through a versioned detector
 * pool.
 *
 * Submitted programs must stay alive until their futures' get() or
 * wait() returns. A program without windows for every base period of
 * the pool version that plans it is answered InvalidArgument, and one
 * the shadow candidate cannot plan is not shadow-scored. Health state
 * accumulates per pool version; epochs advance per drained batch.
 */
class DetectionService
{
  public:
    /**
     * @param pool   the version-1 pool. The pool's policy steers
     *               per-request switching; its own sequential RNG is
     *               never consumed, so serving does not perturb
     *               replays through Rhmd::decide.
     * @param config queueing, batching, admission, chaos, and
     *               degradation knobs.
     *
     * Workers start immediately.
     */
    DetectionService(std::shared_ptr<const core::Rhmd> pool,
                     ServeConfig config);

    /**
     * Convenience: serve a borrowed pool that outlives the service
     * (no ownership taken). Such a service can still swapPool(); the
     * borrowed pool simply stops being served.
     */
    DetectionService(const core::Rhmd &pool, ServeConfig config);

    /** Stops and drains the service. */
    ~DetectionService();

    DetectionService(const DetectionService &) = delete;
    DetectionService &operator=(const DetectionService &) = delete;

    /**
     * Submit one program for classification. Returns a future whose
     * get() yields the request's report, or Unavailable when the
     * request was shed (stopped / breaker open / quota / queue full /
     * deadline) or the whole pool is quarantined under fail-closed.
     * A program the batch's pool version cannot plan — no windows at
     * one of its detector periods, or a stream that ends before the
     * last epoch (core::checkEpochWindows) — is answered
     * InvalidArgument and does not count toward the circuit breaker.
     *
     * The future is a deferred one over the request's Reply: get()
     * and wait() block until the service answers; wait_for() and
     * wait_until() return std::future_status::deferred at once and
     * cannot poll it.
     *
     * @param prog        feature windows; must stay alive until the
     *                    future's get() or wait() returns.
     * @param request_key caller-chosen identity of this request; the
     *                    switching stream is derived from it, so
     *                    resubmitting a key replays the same
     *                    decisions against the same pool version (and
     *                    distinct concurrent requests should use
     *                    distinct keys).
     * @param tenant      quota bucket this request draws from (only
     *                    meaningful with admission control enabled).
     */
    std::future<support::StatusOr<ServeReport>>
    submit(const features::ProgramFeatures &prog,
           std::uint64_t request_key, std::uint64_t tenant = 0);

    /**
     * Promote @p candidate to the next pool version under live
     * traffic (no drain, no pause): new batches plan against it as
     * soon as it is published, in-flight batches finish on the
     * version they started with. Returns the new version, or the
     * gate's rejection (invalid candidate / PAC floor regression) —
     * on rejection the current version keeps serving untouched.
     */
    support::StatusOr<std::uint64_t>
    swapPool(std::shared_ptr<const core::Rhmd> candidate);

    /**
     * Install @p candidate as the shadow pool: from the next drained
     * batch on, every live request that produced a classification is
     * also scored against it. Shadow scoring runs before the
     * request is answered (the submitted program is only guaranteed
     * alive until then), adding one pool's scoring cost
     * per request while a candidate is under evaluation. Replaces any
     * previous shadow and resets the stats. Rejects structurally
     * invalid candidates; shadow scoring requires submitted programs
     * to carry windows for the candidate's base periods too.
     */
    support::Status
    installShadow(std::shared_ptr<const core::Rhmd> candidate);

    /** Remove the shadow pool (stats stay readable until the next
     *  installShadow). */
    void clearShadow();

    /** True while a shadow candidate is installed. */
    bool shadowActive() const;

    /** Consistent copy of the shadow lane's running stats. */
    ShadowStats shadowStats() const;

    /**
     * Close the queue, serve the already-admitted backlog, and join
     * the workers. Idempotent; submit() after stop() sheds under
     * serve.shed_stopped.
     */
    void stop();

    /** Epoch length of the current pool version. */
    std::uint32_t epochLength() const
    {
        return pools_.current()->pool->decisionPeriod();
    }

    /** Pool size of the current pool version. */
    std::size_t poolSize() const
    {
        return pools_.current()->pool->poolSize();
    }

    /** Version currently published for new batches. */
    std::uint64_t poolVersion() const { return pools_.version(); }

    /**
     * Consistent copy of the current version's health state, taken
     * under the health mutex — safe to call while workers run (live
     * dashboards). This is the accessor to use outside tests.
     */
    runtime::HealthMonitor healthSnapshot() const;

    /**
     * Current version's live health monitor, for post-hoc
     * inspection. Only quiescent reads (after stop(), with no
     * concurrent swapPool) are meaningful — workers mutate it
     * concurrently while running; use healthSnapshot() for that.
     */
    const runtime::HealthMonitor &health() const
    {
        return pools_.current()->health;
    }

    CircuitBreaker::State breakerState() const
    {
        return breaker_.state();
    }

  private:
    struct Request
    {
        const features::ProgramFeatures *prog = nullptr;
        std::uint64_t key = 0;
        std::uint64_t tenant = 0;
        std::chrono::steady_clock::time_point enqueued;
        Reply reply;
    };

    /**
     * One worker's batch working set, reused from batch to batch so
     * that, once it has seen a full batch, a batch allocates only the
     * decisions its reports hand out, the rows and scores of
     * Hmd::scoreWindows and the effective policy. Each worker owns
     * one: workers share nothing.
     */
    struct BatchScratch
    {
        /** The batch's requests that passed the shape check. */
        std::vector<Request *> live;
        /** Every live request's per-epoch decision, -1 while
         *  unclassified; live request r owns [offsets[r],
         *  offsets[r + 1]). */
        std::vector<int> decided;
        std::vector<std::size_t> offsets;
        std::vector<std::size_t> failures;
        /** Summed |score - threshold| over each live request's
         *  classified epochs (behind ServeReport::meanMargin). */
        std::vector<double> marginSum;
        std::vector<core::EpochPlan::Slot> failed;
        /** Each live request's answer, sent once all are built. */
        std::vector<support::StatusOr<ServeReport>> answers;
        /** Rebound to the batch's pool version by reset(). */
        core::EpochPlan plan;
    };

    void workerLoop();

    /**
     * Shed the requests of @p batch whose queue wait exceeded the
     * deadline (serve.shed_deadline) and erase them, so planning only
     * ever sees live work. Admission charges of shed requests are
     * returned here. No-op when no deadline is configured.
     */
    void shedExpired(std::vector<Request> &batch);

    void processBatch(std::vector<Request> &batch, BatchScratch &scratch);

    /**
     * Score one classified live request against the shadow pool with
     * its own (seed, key) switching stream and fold the outcome into
     * shadowStats_. Plain scoring: no chaos, no health coupling, no
     * failover — the candidate is evaluated as it would serve. A
     * program the candidate cannot plan (core::checkEpochWindows) is
     * skipped: the live check does not cover the candidate's periods.
     */
    void shadowScore(const features::ProgramFeatures &prog,
                     std::uint64_t key, int live_decision,
                     const core::Rhmd &candidate);

    ServeConfig config_;
    SplitRng switchRng_;
    SplitRng failoverRng_;

    PoolManager pools_;
    AdmissionController admission_;
    CircuitBreaker breaker_;
    ChaosInjector chaos_;

    /** Guards the shadow pool pointer and its running stats. */
    mutable std::mutex shadowMutex_;
    std::shared_ptr<const core::Rhmd> shadow_;
    ShadowStats shadowStats_;

    support::BoundedQueue<Request> queue_;
    std::vector<std::thread> workers_;
    std::chrono::steady_clock::time_point started_;
    std::mutex stopMutex_;
    std::atomic<bool> stopped_{false};
};

} // namespace rhmd::serve

#endif // RHMD_SERVE_SERVICE_HH

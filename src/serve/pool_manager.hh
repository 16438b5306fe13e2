/**
 * @file
 * Versioned detector-pool snapshots with zero-downtime promotion.
 *
 * The paper's evade→retrain game (Sec. 6) only matters in deployment
 * if a retrained pool can replace the live one without draining the
 * service. PoolManager holds the published pool as an epoch/RCU-style
 * snapshot: readers (worker batches) grab a `shared_ptr<PoolState>`
 * once per batch and keep serving that version to completion even if
 * a swap lands mid-batch; the shared_ptr *is* the epoch — the old
 * version is reclaimed exactly when the last in-flight batch drops
 * its reference, never under a reader's feet.
 *
 * Promotion is gated, not trusted: `swapPool()` re-runs the pool and
 * policy invariants (`core::Rhmd::validate`) and, when a
 * PromotionGate is configured, the paper's Theorem-1 criterion
 * (`core::checkPacFloor`) — a candidate whose provable
 * reverse-engineering floor is worse than the serving pool's is
 * rejected and the current version keeps serving. Grounded in
 * "Certifiably robust malware detectors by design" (PAPERS.md): only
 * deploy what you can still prove something about.
 *
 * Health state is scoped to a version. Each PoolState carries its own
 * HealthMonitor (sized for its pool) plus the mutex guarding it, so a
 * promotion starts from a clean health slate and an in-flight batch
 * keeps reporting into the monitor that matches the pool it is
 * actually scoring with.
 */

#ifndef RHMD_SERVE_POOL_MANAGER_HH
#define RHMD_SERVE_POOL_MANAGER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/rhmd.hh"
#include "features/corpus.hh"
#include "runtime/health.hh"
#include "support/status.hh"

namespace rhmd::serve
{

/**
 * The PAC promotion gate. When @p corpus is null the gate is off and
 * swaps are admitted on structural validity alone (tests, benches
 * that rebuild identical pools). When set, @p testIdx names the
 * held-out programs the Theorem-1 bounds are measured on.
 */
struct PromotionGate
{
    const features::FeatureCorpus *corpus = nullptr;
    std::vector<std::size_t> testIdx;

    /**
     * Slack on the floor comparison: a candidate may undercut the
     * current lower bound by at most this before it is rejected.
     */
    double floorTolerance = 0.0;

    /**
     * When true (and the gate is on), promotion additionally runs the
     * abstract-interpretation certifier
     * (analysis::certify::checkCertifiedFloor): a candidate whose
     * certified evasion bound regresses by more than
     * certifiedTolerance — or whose parameters fail the static audit —
     * is rejected. Composes with the PAC floor: Theorem 1 bounds what
     * an attacker can *learn*, the certified bound what a bounded
     * perturbation can *flip*.
     */
    bool certify = false;

    /** Slack on the certified-bound comparison (standardized units). */
    double certifiedTolerance = 0.0;
};

/**
 * One published pool version and the mutable serving state scoped to
 * it. Immutable after construction except for the health monitor,
 * which workers mutate under healthMutex.
 */
struct PoolState
{
    std::shared_ptr<const core::Rhmd> pool;
    std::uint64_t version = 0;

    /** Guards health (workers report outcomes concurrently). */
    mutable std::mutex healthMutex;
    runtime::HealthMonitor health;

    PoolState(std::shared_ptr<const core::Rhmd> pool_in,
              std::uint64_t version_in,
              const runtime::HealthConfig &health_config)
        : pool(std::move(pool_in)), version(version_in),
          health(pool->poolSize(), health_config)
    {
    }
};

/**
 * Owns the published snapshot and the promotion path. current() is
 * the read side (one mutex-guarded shared_ptr copy per batch);
 * swapPool() is the write side, serialized so two concurrent
 * promotions cannot both gate against the same predecessor.
 */
class PoolManager
{
  public:
    /**
     * @param initial the version-1 pool; must be valid (fatal on a
     *                pool that fails its own invariants — there is no
     *                graceful answer to deploying garbage at boot).
     * @param health  per-version degradation policy.
     * @param gate    PAC promotion gate; off when corpus is null.
     */
    PoolManager(std::shared_ptr<const core::Rhmd> initial,
                const runtime::HealthConfig &health,
                PromotionGate gate = {});

    PoolManager(const PoolManager &) = delete;
    PoolManager &operator=(const PoolManager &) = delete;

    /** The snapshot new work should plan against. Never null. */
    std::shared_ptr<PoolState> current() const;

    /** Version of the currently published snapshot. */
    std::uint64_t version() const;

    /**
     * Gate and publish @p candidate as the next pool version without
     * disturbing in-flight work. On success returns the new version;
     * on rejection (null/invalid candidate, PAC floor regression) the
     * published snapshot is unchanged and keeps serving. Thread-safe;
     * concurrent swaps are applied one at a time.
     */
    support::StatusOr<std::uint64_t>
    swapPool(std::shared_ptr<const core::Rhmd> candidate);

  private:
    runtime::HealthConfig healthConfig_;
    PromotionGate gate_;

    /** Serializes swapPool (gate evaluation happens outside mutex_). */
    std::mutex swapMutex_;

    /** Guards the published pointer only. */
    mutable std::mutex mutex_;
    std::shared_ptr<PoolState> current_;
};

} // namespace rhmd::serve

#endif // RHMD_SERVE_POOL_MANAGER_HH

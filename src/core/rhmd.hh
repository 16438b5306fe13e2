/**
 * @file
 * The paper's contribution: the Resilient HMD — a pool of diverse
 * base detectors (different feature vectors and collection periods)
 * switched stochastically so the composite decision boundary cannot
 * be reverse-engineered (Sec. 7).
 */

#ifndef RHMD_CORE_RHMD_HH
#define RHMD_CORE_RHMD_HH

#include <memory>
#include <vector>

#include "core/hmd.hh"
#include "support/rng.hh"
#include "support/status.hh"

namespace rhmd::core
{

/**
 * Validate and normalize a switching policy in place for a pool of
 * @p n_detectors. An empty policy becomes uniform. Entries must be
 * finite and non-negative, and the sum must be within 1e-6 of 1;
 * a passing policy is renormalized to sum to exactly 1, so
 * user-computed policies (e.g. three times 1.0/3) are accepted.
 */
support::Status validatePolicy(std::vector<double> &policy,
                               std::size_t n_detectors);

/**
 * InvalidArgument unless every period in @p periods divides the
 * longest one (the epoch), so every base window starts on an epoch
 * boundary.
 */
support::Status
validateEpochPeriods(const std::vector<std::uint32_t> &periods);

/**
 * Validate a detector pool: non-empty, no nulls, all trained, and
 * every base period divides the epoch (validateEpochPeriods).
 */
support::Status
validateDetectorPool(const std::vector<std::unique_ptr<Hmd>> &detectors);

/** Epoch length of a validated pool: its longest base period. */
std::uint32_t
poolEpoch(const std::vector<std::unique_ptr<Hmd>> &detectors);

/**
 * The window @p det classifies when it is drawn for epoch @p e of a
 * pool with epoch length @p epoch: its own leading sub-window of the
 * epoch, at index e * (epoch / period). Base periods divide the
 * epoch, so precollected windows line up with epoch boundaries.
 * Panics when @p prog's stream at that period ends first.
 */
const features::RawWindow &
requireEpochWindow(const features::ProgramFeatures &prog,
                   std::uint32_t epoch, const Hmd &det, std::size_t e);

/**
 * InvalidArgument unless every requireEpochWindow() a pool of
 * @p detectors with epoch length @p epoch can make on @p prog
 * succeeds: @p prog has windows at every detector period, and each
 * period's stream reaches epoch n - 1, where n is the number of
 * windows at @p epoch. A service checks an untrusted program with
 * this before planning it.
 */
support::Status
checkEpochWindows(const features::ProgramFeatures &prog,
                  const std::vector<std::unique_ptr<Hmd>> &detectors,
                  std::uint32_t epoch);

/** requireEpochWindow() for every epoch of @p prog, in epoch order. */
std::vector<const features::RawWindow *>
epochWindows(const features::ProgramFeatures &prog, std::uint32_t epoch,
             const Hmd &det);

/**
 * The verdict of @p total decisions of which @p malware flag malware:
 * the majority, with ties flagged as malware (0 for no decisions).
 */
int majorityVote(std::size_t malware, std::size_t total);

/** majorityVote() over a sequence of 0/1 @p decisions. */
int majorityVote(const std::vector<int> &decisions);

/**
 * The RHMD epoch rule (Sec. 7) as one schedule. Each epoch of each
 * program draws a base detector from the caller's switching stream;
 * the drawn detector classifies its leading sub-window of the epoch
 * (requireEpochWindow). draw() consumes the stream in program order,
 * then epoch order; score() then runs one Hmd::scoreWindows() pass
 * per drawn detector, in detector-index order, instead of one call
 * per window. A window scores the same in any batch, so decisions
 * match a serial epoch-by-epoch loop over the same stream bit for
 * bit.
 */
class EpochPlan
{
  public:
    /** One drawn epoch: the program's draw() ordinal and the epoch. */
    struct Slot
    {
        std::size_t prog;
        std::size_t epoch;
    };

    /** An empty plan over no detectors; reset() binds it to a pool. */
    EpochPlan() = default;

    /** An empty plan over @p detectors at epoch length @p epoch. */
    EpochPlan(const std::vector<std::unique_ptr<Hmd>> &detectors,
              std::uint32_t epoch);

    /**
     * Empty the plan and bind it to @p detectors at epoch length
     * @p epoch, as a fresh plan over them would be. The per-detector
     * lists keep their capacity, so a plan reused across batches stops
     * allocating once it has seen the largest batch.
     */
    void reset(const std::vector<std::unique_ptr<Hmd>> &detectors,
               std::uint32_t epoch);

    /**
     * Draw every epoch of @p prog in order; @p pick() returns the
     * index of the detector classifying the next epoch. The program's
     * slot is the number of programs drawn before it. Returns its
     * epoch count.
     */
    template <typename Pick>
    std::size_t
    draw(const features::ProgramFeatures &prog, Pick &&pick)
    {
        const std::size_t n_epochs = prog.windows(epoch_).size();
        for (std::size_t e = 0; e < n_epochs; ++e) {
            const std::size_t d = pick();
            slots_[d].push_back({programs_, e});
            rows_[d].push_back(
                &requireEpochWindow(prog, epoch_, *(*detectors_)[d], e));
        }
        ++programs_;
        return n_epochs;
    }

    /**
     * Score every drawn epoch: @p visit(d, slots, scores) sees each
     * drawn detector d once, in index order, with its slots in draw
     * order and their scores.
     */
    template <typename Visit>
    void
    score(Visit &&visit) const
    {
        for (std::size_t d = 0; d < rows_.size(); ++d) {
            if (rows_[d].empty())
                continue;
            visit(d, slots_[d], (*detectors_)[d]->scoreWindows(rows_[d]));
        }
    }

    /**
     * score() thresholded by each drawn detector into
     * @p decisions[slot][epoch], which the caller sizes from draw().
     */
    void decide(std::vector<std::vector<int>> &decisions) const;

  private:
    const std::vector<std::unique_ptr<Hmd>> *detectors_ = nullptr;
    std::uint32_t epoch_ = 0;
    std::size_t programs_ = 0;
    std::vector<std::vector<Slot>> slots_;
    std::vector<std::vector<const features::RawWindow *>> rows_;
};

/**
 * Randomized detector pool.
 *
 * Decision epochs run at the longest base period; every epoch an
 * independent draw from the policy vector selects the detector that
 * classifies that epoch. A detector with a shorter period classifies
 * the leading sub-window of the epoch (base periods must divide the
 * epoch length so precollected windows align).
 */
class Rhmd : public Detector
{
  public:
    /**
     * @param detectors trained base detectors (takes ownership).
     * @param policy    selection probabilities p_i; empty means
     *                  uniform. Must sum to 1 when given.
     * @param seed      switching randomness.
     */
    Rhmd(std::vector<std::unique_ptr<Hmd>> detectors,
         std::vector<double> policy, std::uint64_t seed);

    /** Epoch length: the maximum base-detector period. */
    std::uint32_t decisionPeriod() const override;

    /** decideBatch() of one program. */
    std::vector<int>
    decide(const features::ProgramFeatures &prog) override;

    /**
     * Decisions for several programs on one EpochPlan: the switching
     * stream is drawn in program order, then epoch order, so a batch
     * consumes it exactly as back-to-back decide() calls do, and
     * decisions, selection counts and metrics match them bit for bit.
     */
    std::vector<std::vector<int>>
    decideBatch(const std::vector<const features::ProgramFeatures *> &progs);

    /** Base detectors. */
    const std::vector<std::unique_ptr<Hmd>> &detectors() const
    {
        return detectors_;
    }

    /** Selection policy (always normalized, never empty). */
    const std::vector<double> &policy() const { return policy_; }

    /** Number of base detectors. */
    std::size_t poolSize() const { return detectors_.size(); }

    /**
     * How often each detector was selected since construction
     * (tests use this to check the switch matches the policy).
     */
    const std::vector<std::size_t> &selectionCounts() const
    {
        return selectionCounts_;
    }

    /**
     * The switching distribution this pool actually realized: the
     * normalized selection counts (all zeros before any decision).
     * Benches report it next to policy() so the paper's Sec. 7
     * randomization can be audited, not assumed; the CI determinism
     * gate compares the realized histograms across thread counts.
     */
    std::vector<double> realizedPolicy() const;

    /**
     * Re-run the pool and policy invariants on an already-constructed
     * pool. Construction validates too, but a pool offered for live
     * promotion (serve::PoolManager::swapPool) is revalidated at the
     * admission boundary so a candidate that decayed after
     * construction — a detector whose model was clobbered in place,
     * an externally mutated policy — is rejected instead of served.
     */
    support::Status validate() const;

  private:
    std::vector<std::unique_ptr<Hmd>> detectors_;
    std::vector<double> policy_;
    Rng rng_;
    std::uint32_t epoch_ = 0;
    std::vector<std::size_t> selectionCounts_;
};

/**
 * Train one base detector per (algorithm, spec) on the given
 * ground-truth programs, in parallel; detector i is seeded with
 * seed + i + 1. Exits (fatal) before any training when @p specs is
 * empty or a spec period does not divide the longest one.
 */
std::vector<std::unique_ptr<Hmd>> trainSpecDetectors(
    const std::string &algorithm,
    const std::vector<features::FeatureSpec> &specs,
    const features::FeatureCorpus &corpus,
    const std::vector<std::size_t> &train_idx, std::size_t opcode_top_k,
    std::uint64_t seed);

/**
 * Convenience builder: trainSpecDetectors() wrapped in an Rhmd with a
 * uniform policy.
 */
std::unique_ptr<Rhmd> buildRhmd(
    const std::string &algorithm,
    const std::vector<features::FeatureSpec> &specs,
    const features::FeatureCorpus &corpus,
    const std::vector<std::size_t> &train_idx, std::size_t opcode_top_k,
    std::uint64_t seed);

/**
 * Recoverable Rhmd construction: returns an error Status instead of
 * exiting when the pool or policy is invalid, so deployment code
 * (which may receive a policy from configuration) can degrade
 * gracefully. On success the detectors have been consumed; on error
 * they are destroyed with the returned status describing the problem.
 */
support::StatusOr<std::unique_ptr<Rhmd>>
tryMakeRhmd(std::vector<std::unique_ptr<Hmd>> detectors,
            std::vector<double> policy, std::uint64_t seed);

/**
 * The paper's Sec. 8.3 future-work design: a *non-stationary* RHMD.
 * An attacker who knows the exact base-detector configurations of a
 * static pool can iteratively evade all of them (at high overhead);
 * the proposed mitigation keeps "a large set of candidate features
 * and periods, of which a random subset is used for the RHMD at any
 * given time". This class holds a candidate pool and re-draws the
 * active subset every rotation interval, so the composite decision
 * boundary moves under the attacker's feet.
 */
class RotatingRhmd : public Detector
{
  public:
    /**
     * @param candidates      trained candidate detectors.
     * @param active_size     detectors active at a time.
     * @param rotation_epochs epochs between subset re-draws.
     * @param seed            switching and rotation randomness.
     */
    RotatingRhmd(std::vector<std::unique_ptr<Hmd>> candidates,
                 std::size_t active_size, std::uint32_t rotation_epochs,
                 std::uint64_t seed);

    std::uint32_t decisionPeriod() const override;
    std::vector<int>
    decide(const features::ProgramFeatures &prog) override;

    const std::vector<std::unique_ptr<Hmd>> &candidates() const
    {
        return candidates_;
    }

    /** Indices of the currently active subset (for tests). */
    const std::vector<std::size_t> &activeSubset() const
    {
        return active_;
    }

  private:
    void rotate();

    std::vector<std::unique_ptr<Hmd>> candidates_;
    std::size_t activeSize_;
    std::uint32_t rotationEpochs_;
    Rng rng_;
    std::uint32_t epoch_ = 0;
    std::uint32_t epochsUntilRotation_ = 0;
    std::vector<std::size_t> active_;
};

} // namespace rhmd::core

#endif // RHMD_CORE_RHMD_HH

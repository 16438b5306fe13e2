/**
 * @file
 * Deterministic parallel execution for the experiment pipeline.
 *
 * Every paper experiment is embarrassingly parallel across programs,
 * detectors, and trials, but all results must stay seeded-RNG
 * reproducible: an N-thread run has to be bit-identical to the
 * 1-thread run. This layer provides the pieces that make that hold:
 *
 *  - ThreadPool: a fixed set of workers fed from a bounded task
 *    queue. No work stealing — tasks are claimed from a shared
 *    index counter, so scheduling order never influences results.
 *    With one thread (or hardware_concurrency() == 0, or
 *    RHMD_THREADS=1) the pool degrades to inline serial execution,
 *    which keeps sanitizer and valgrind runs debuggable.
 *
 *  - parallelMap / parallelFor: index-space loops whose results are
 *    merged in *index order* regardless of completion order (ordered
 *    reduction). A Status-returning body cancels outstanding work on
 *    the first error; the error reported is the one with the lowest
 *    index, so even failures are deterministic.
 *
 *  - SplitRng (see support/rng.hh): derives an independent stream
 *    from (root seed, task index), so per-task randomness does not
 *    depend on which thread ran the task or in what order.
 *
 * The determinism contract (DESIGN.md §9): a parallel loop body may
 * only read shared state, write its own index's slot, and draw from
 * an Rng derived from the task index. Detectors that consume
 * switching randomness sequentially (Rhmd::decide) are *not* run
 * concurrently — their query order is part of the seeded stream.
 */

#ifndef RHMD_SUPPORT_PARALLEL_HH
#define RHMD_SUPPORT_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/status.hh"

namespace rhmd::support
{

/**
 * Worker count implied by @p requested: 0 consults the RHMD_THREADS
 * environment variable, then std::thread::hardware_concurrency(),
 * and falls back to 1 when the hardware reports nothing.
 */
std::size_t resolveThreadCount(std::size_t requested = 0);

/**
 * Fixed-size thread pool with a bounded task queue. submit() blocks
 * once the queue holds 4x the worker count, which keeps producers
 * from buffering an entire sweep's closures. A pool constructed with
 * one thread executes tasks inline on the submitting thread.
 */
class ThreadPool
{
  public:
    /** @param threads worker count; 0 resolves via resolveThreadCount. */
    explicit ThreadPool(std::size_t threads = 0);

    /** Drains the queue, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (1 means serial inline execution). */
    std::size_t threads() const { return threads_; }

    /** True when tasks run inline on the submitting thread. */
    bool serial() const { return threads_ <= 1; }

    /**
     * Enqueue a task; blocks while the queue is at capacity. In
     * serial mode the task runs before submit() returns.
     */
    void submit(std::function<void()> task);

    /**
     * Block until every worker has started and every submitted task
     * has finished and been destroyed. No worker is then inside the
     * allocator, so the caller may fork.
     */
    void wait();

  private:
    void workerLoop();

    /** Every worker is parked in its loop; call with mutex_ held. */
    bool idle() const
    {
        return started_ == threads_ && queue_.empty() && active_ == 0;
    }

    std::size_t threads_;
    std::size_t capacity_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable taskReady_;
    std::condition_variable spaceReady_;
    std::condition_variable allIdle_;
    std::size_t started_ = 0;
    std::size_t active_ = 0;
    bool stopping_ = false;
};

/**
 * The process-wide pool used by the library's parallel hot paths.
 * Created on first use with resolveThreadCount(0); reconfigure with
 * setGlobalThreads() *before* the first parallel loop (benches call
 * it from --threads / RHMD_THREADS parsing).
 */
ThreadPool &globalPool();

/**
 * Recreate the global pool with @p threads workers (0 re-resolves
 * from the environment). Must not be called while a parallel loop is
 * in flight.
 */
void setGlobalThreads(std::size_t threads);

/** Worker count of the global pool without forcing its creation. */
std::size_t globalThreads();

namespace detail
{

/**
 * Run body(i) for i in [0, n) on the pool, claiming indices from a
 * shared counter. @p body must not throw; panics abort loudly from
 * whichever worker hit them. Blocks until all n indices completed.
 */
void parallelForIndex(ThreadPool &pool, std::size_t n,
                      const std::function<void(std::size_t)> &body);

} // namespace detail

/**
 * Ordered-reduction map: out[i] = body(i), with the output vector
 * indexed by task index so the merge order never depends on the
 * completion order. Bit-identical across thread counts whenever the
 * body depends only on its index (and index-derived RNG).
 */
template <typename T, typename Body>
std::vector<T>
parallelMap(ThreadPool &pool, std::size_t n, Body &&body)
{
    std::vector<T> out(n);
    detail::parallelForIndex(
        pool, n, [&](std::size_t i) { out[i] = body(i); });
    return out;
}

/** parallelMap on the global pool. */
template <typename T, typename Body>
std::vector<T>
parallelMap(std::size_t n, Body &&body)
{
    return parallelMap<T>(globalPool(), n, std::forward<Body>(body));
}

/** Void loop over [0, n) with no result merge. */
template <typename Body>
void
parallelFor(ThreadPool &pool, std::size_t n, Body &&body)
{
    detail::parallelForIndex(
        pool, n, [&](std::size_t i) { body(i); });
}

/** parallelFor on the global pool. */
template <typename Body>
void
parallelFor(std::size_t n, Body &&body)
{
    parallelFor(globalPool(), n, std::forward<Body>(body));
}

/**
 * Status-propagating loop with structured cancellation: the first
 * failure (by *lowest index*, not completion time) cancels all
 * not-yet-started work and is the Status returned. Indices whose
 * body never ran because of cancellation are simply skipped; indices
 * already running complete normally.
 */
template <typename Body>
Status
parallelForStatus(ThreadPool &pool, std::size_t n, Body &&body)
{
    std::atomic<std::size_t> firstError{n};
    std::mutex errMutex;
    std::vector<std::pair<std::size_t, Status>> errors;

    detail::parallelForIndex(pool, n, [&](std::size_t i) {
        // Cancellation point: skip work ordered after a known error.
        if (i > firstError.load(std::memory_order_acquire))
            return;
        Status status = body(i);
        if (status.isOk())
            return;
        std::size_t seen = firstError.load(std::memory_order_acquire);
        while (i < seen && !firstError.compare_exchange_weak(
                               seen, i, std::memory_order_acq_rel)) {
        }
        const std::lock_guard<std::mutex> lock(errMutex);
        errors.emplace_back(i, std::move(status));
    });

    const std::size_t winner =
        firstError.load(std::memory_order_acquire);
    if (winner == n)
        return {};
    for (auto &[index, status] : errors) {
        if (index == winner)
            return std::move(status);
    }
    rhmd_panic("parallelForStatus lost its first error");
}

/** parallelForStatus on the global pool. */
template <typename Body>
Status
parallelForStatus(std::size_t n, Body &&body)
{
    return parallelForStatus(globalPool(), n,
                             std::forward<Body>(body));
}

/**
 * Ordered reduction: map each index to a T, then fold the results
 * into @p init strictly in index order. The fold runs on the calling
 * thread, so non-associative merges (floating-point sums, audit
 * counters) still match the serial run exactly.
 */
template <typename T, typename Acc, typename Body, typename Fold>
Acc
parallelReduce(ThreadPool &pool, std::size_t n, Acc init, Body &&body,
               Fold &&fold)
{
    const std::vector<T> mapped =
        parallelMap<T>(pool, n, std::forward<Body>(body));
    for (std::size_t i = 0; i < n; ++i)
        init = fold(std::move(init), mapped[i]);
    return init;
}

} // namespace rhmd::support

#endif // RHMD_SUPPORT_PARALLEL_HH

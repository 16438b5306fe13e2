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
 *  - parallelMap: an index-space loop whose results land in *index
 *    order* regardless of completion order, so a caller that folds
 *    them in that order matches the serial run exactly.
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

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

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

} // namespace rhmd::support

#endif // RHMD_SUPPORT_PARALLEL_HH

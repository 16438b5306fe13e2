/**
 * @file
 * Deterministic parallel execution for the experiment pipeline.
 *
 * Every paper experiment is embarrassingly parallel across programs,
 * detectors, and trials, but all results must stay seeded-RNG
 * reproducible: an N-thread run has to be bit-identical to the
 * 1-thread run. This layer provides the pieces that make that hold:
 *
 *  - ThreadPool: a fixed team of workers that runs one index loop at
 *    a time (fork-join). No work stealing — indices are claimed from
 *    a shared counter, so scheduling order never influences results.
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

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
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
 * Fixed team of workers that runs one index loop at a time. A pool
 * constructed with one thread runs every loop inline on the calling
 * thread.
 */
class ThreadPool
{
  public:
    /**
     * @param threads worker count; 0 resolves via resolveThreadCount.
     * Returns once every worker has started and parked.
     */
    explicit ThreadPool(std::size_t threads = 0);

    /** Joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count (1 means serial inline execution). */
    std::size_t threads() const { return threads_; }

    /** True when loops run inline on the calling thread. */
    bool serial() const { return threads_ <= 1; }

    /**
     * Run body(i) once for every i in [0, n), the workers claiming
     * indices from a shared counter, and return once every worker
     * has parked again: no worker is then inside the allocator, so
     * the caller may fork. @p body must not throw; panics abort
     * loudly from whichever worker hit them. Runs inline in index
     * order on a serial pool, for n == 1, and when called from
     * inside a loop body. Loops started from different threads run
     * one after another.
     */
    template <typename Body>
    void forEach(std::size_t n, const Body &body)
    {
        run(n, &body, [](const void *fn, std::size_t i) {
            (*static_cast<const Body *>(fn))(i);
        });
    }

  private:
    /** A loop body erased to a plain function pointer: no closure. */
    using Invoke = void (*)(const void *body, std::size_t i);

    void run(std::size_t n, const void *body, Invoke invoke);
    void workerLoop();

    std::size_t threads_;

    /** Makes loops from different calling threads take turns. */
    std::mutex loopMutex_;

    /** Guards the loop state below; next_ is claimed without it. */
    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable parked_;
    /** Number of the current loop; a worker runs each one once. */
    std::uint64_t loop_ = 0;
    /** Workers still inside the current loop (or their start-up). */
    std::size_t running_ = 0;
    bool stopping_ = false;
    std::size_t n_ = 0;
    const void *body_ = nullptr;
    Invoke invoke_ = nullptr;

    /** Next unclaimed index of the current loop. */
    std::atomic<std::size_t> next_{0};

    std::vector<std::thread> workers_;
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
    pool.forEach(n, [&](std::size_t i) { out[i] = body(i); });
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

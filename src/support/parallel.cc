/**
 * @file
 * Thread pool and deterministic loop implementation.
 */

#include "support/parallel.hh"

#include <pthread.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <utility>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace rhmd::support
{

namespace
{

// Pool metrics are Timing-domain: task counts and queue depths depend
// on the worker count and the scheduler (serial mode runs tasks
// inline and submits none), so they are exposition-only and never
// part of the determinism comparison.

Counter &
poolTaskCounter()
{
    static Counter &c = metrics().counter(
        "pool.tasks", "claiming tasks executed by the thread pool",
        MetricDomain::Timing);
    return c;
}

Gauge &
poolQueuePeakGauge()
{
    static Gauge &g = metrics().gauge(
        "pool.queue_peak", "peak task-queue depth observed",
        MetricDomain::Timing);
    return g;
}

Histogram &
poolTaskSecondsHistogram()
{
    static Histogram &h = metrics().histogram(
        "pool.task_seconds", "per-task wall time",
        {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0}, MetricDomain::Timing);
    return h;
}

/** Run @p task, stamping the pool's per-task metrics. */
void
runInstrumented(const std::function<void()> &task)
{
    const auto start = std::chrono::steady_clock::now();
    task();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    poolTaskCounter().add(1);
    poolTaskSecondsHistogram().observe(seconds);
}

} // namespace

std::size_t
resolveThreadCount(std::size_t requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("RHMD_THREADS")) {
        char *end = nullptr;
        const unsigned long parsed = std::strtoul(env, &end, 10);
        fatal_if(end == env || *end != '\0',
                 "RHMD_THREADS must be a non-negative integer, got '",
                 env, "'");
        if (parsed > 0)
            return static_cast<std::size_t>(parsed);
        // RHMD_THREADS=0 means "auto", same as unset.
    }
    // hardware_concurrency() may legitimately report 0; fall back to
    // serial so sanitizer/valgrind runs on odd platforms still work.
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

ThreadPool::ThreadPool(std::size_t threads)
    : threads_(resolveThreadCount(threads)), capacity_(threads_ * 4)
{
    if (serial())
        return;
    workers_.reserve(threads_);
    for (std::size_t t = 0; t < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    if (serial())
        return;
    wait();
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    taskReady_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    panic_if(task == nullptr, "ThreadPool::submit of an empty task");
    if (serial()) {
        runInstrumented(task);
        return;
    }
    {
        std::unique_lock<std::mutex> lock(mutex_);
        spaceReady_.wait(
            lock, [this] { return queue_.size() < capacity_; });
        queue_.push_back(std::move(task));
        poolQueuePeakGauge().updateMax(
            static_cast<double>(queue_.size()));
    }
    taskReady_.notify_one();
}

void
ThreadPool::wait()
{
    if (serial())
        return;
    std::unique_lock<std::mutex> lock(mutex_);
    allIdle_.wait(lock, [this] { return idle(); });
}

void
ThreadPool::workerLoop()
{
    // wait() counts a worker as busy until it gets here: a thread
    // still in its start-up (the sanitizer runtime's allocates and
    // frees) must not be inside the allocator when the caller forks.
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        ++started_;
        if (idle())
            allIdle_.notify_all();
    }
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            taskReady_.wait(lock, [this] {
                return stopping_ || !queue_.empty();
            });
            if (stopping_ && queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
            ++active_;
        }
        spaceReady_.notify_one();
        runInstrumented(task);
        // Free the closure before reporting idle: wait() must not
        // return while a worker is still inside the allocator, or a
        // fork() right after it leaves the child holding its lock.
        task = nullptr;
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            --active_;
            if (idle())
                allIdle_.notify_all();
        }
    }
}

namespace
{

std::mutex &
globalPoolMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::unique_ptr<ThreadPool> &
globalPoolSlot()
{
    static std::unique_ptr<ThreadPool> pool;
    return pool;
}

/**
 * fork() duplicates only the calling thread: in the child the pool's
 * workers are gone, but the std::thread handles still look joinable,
 * so the child's exit()-time pool destructor would join phantom
 * threads and hang forever (gtest death tests fork on every
 * EXPECT_EXIT). Abandon the pool object in the child — leaking it is
 * the only safe option, since its mutex may also be held by a worker
 * that no longer exists. Must not take globalPoolMutex() here for the
 * same reason. A child that later needs the pool builds a fresh one.
 */
void
abandonPoolInChild()
{
    (void)globalPoolSlot().release();
}

void
installForkHandler()
{
    static const int rc =
        pthread_atfork(nullptr, nullptr, abandonPoolInChild);
    (void)rc;
}

} // namespace

ThreadPool &
globalPool()
{
    const std::lock_guard<std::mutex> lock(globalPoolMutex());
    installForkHandler();
    auto &slot = globalPoolSlot();
    if (slot == nullptr)
        slot = std::make_unique<ThreadPool>(0);
    return *slot;
}

void
setGlobalThreads(std::size_t threads)
{
    const std::lock_guard<std::mutex> lock(globalPoolMutex());
    installForkHandler();
    auto &slot = globalPoolSlot();
    if (slot != nullptr && slot->threads() == resolveThreadCount(threads))
        return;
    slot = std::make_unique<ThreadPool>(threads);
}

std::size_t
globalThreads()
{
    const std::lock_guard<std::mutex> lock(globalPoolMutex());
    const auto &slot = globalPoolSlot();
    return slot == nullptr ? resolveThreadCount(0) : slot->threads();
}

namespace detail
{

namespace
{

/**
 * Set while the current thread is executing a parallel loop body.
 * A nested loop started from inside a body runs inline and serially:
 * the outer loop already owns the workers (waiting on them from a
 * worker would deadlock), and inline execution keeps the nested
 * iteration order — and therefore the results — identical to a
 * fully serial run.
 */
thread_local bool tlsInParallelBody = false;

} // namespace

void
parallelForIndex(ThreadPool &pool, std::size_t n,
                 const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (tlsInParallelBody || pool.serial() || n == 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    // One claiming task per worker: each repeatedly takes the next
    // unclaimed index. No per-index closure allocation, no work
    // stealing, and the index a task gets never depends on what the
    // other workers are doing.
    std::atomic<std::size_t> next{0};
    const std::size_t tasks = std::min(pool.threads(), n);
    for (std::size_t t = 0; t < tasks; ++t) {
        pool.submit([&body, &next, n] {
            tlsInParallelBody = true;
            for (;;) {
                const std::size_t i =
                    next.fetch_add(1, std::memory_order_relaxed);
                if (i >= n)
                    break;
                body(i);
            }
            tlsInParallelBody = false;
        });
    }
    pool.wait();
}

} // namespace detail

} // namespace rhmd::support

/**
 * @file
 * Thread pool and deterministic loop implementation.
 */

#include "support/parallel.hh"

#include <pthread.h>

#include <chrono>
#include <cstdlib>
#include <memory>

#include "support/logging.hh"
#include "support/metrics.hh"

namespace rhmd::support
{

namespace
{

// Pool metrics are Timing-domain: a serial pool runs its loops
// inline and counts none, so they are exposition-only and never part
// of the determinism comparison.

Counter &
poolLoopCounter()
{
    static Counter &c = metrics().counter(
        "pool.loops", "index loops run on the pool's workers",
        MetricDomain::Timing);
    return c;
}

Histogram &
poolLoopSecondsHistogram()
{
    static Histogram &h = metrics().histogram(
        "pool.loop_seconds", "per-loop wall time on the workers",
        {0.0001, 0.001, 0.01, 0.1, 1.0, 10.0}, MetricDomain::Timing);
    return h;
}

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
    : threads_(resolveThreadCount(threads))
{
    if (serial())
        return;
    // Start-up counts as a loop every worker must finish: a thread
    // still starting (where a sanitizer runtime allocates and frees)
    // must not be inside the allocator when the caller forks.
    running_ = threads_;
    workers_.reserve(threads_);
    for (std::size_t t = 0; t < threads_; ++t)
        workers_.emplace_back([this] { workerLoop(); });
    std::unique_lock<std::mutex> lock(mutex_);
    parked_.wait(lock, [this] { return running_ == 0; });
}

ThreadPool::~ThreadPool()
{
    if (serial())
        return;
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    wake_.notify_all();
    for (std::thread &worker : workers_)
        worker.join();
}

void
ThreadPool::run(std::size_t n, const void *body, Invoke invoke)
{
    if (tlsInParallelBody || serial() || n <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            invoke(body, i);
        return;
    }
    const std::lock_guard<std::mutex> turn(loopMutex_);
    const auto start = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    n_ = n;
    body_ = body;
    invoke_ = invoke;
    next_.store(0, std::memory_order_relaxed);
    running_ = threads_;
    ++loop_;
    wake_.notify_all();
    parked_.wait(lock, [this] { return running_ == 0; });
    lock.unlock();
    poolLoopCounter().add(1);
    poolLoopSecondsHistogram().observe(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count());
}

void
ThreadPool::workerLoop()
{
    // A worker only ever runs loop bodies.
    tlsInParallelBody = true;
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        // Park: the loop (or the start-up) this worker was in is done.
        if (--running_ == 0)
            parked_.notify_all();
        wake_.wait(lock, [&] { return stopping_ || loop_ != seen; });
        if (stopping_)
            return;
        seen = loop_;
        const std::size_t n = n_;
        const void *body = body_;
        const Invoke invoke = invoke_;
        lock.unlock();
        // Claim indices until none is left. No work stealing: which
        // index a worker gets never depends on what the others do.
        for (;;) {
            const std::size_t i =
                next_.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                break;
            invoke(body, i);
        }
        lock.lock();
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

} // namespace rhmd::support

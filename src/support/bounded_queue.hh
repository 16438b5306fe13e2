/**
 * @file
 * Bounded multi-producer multi-consumer queue for the detection
 * service.
 *
 * The serving path needs backpressure with an explicit shedding
 * decision at the admission boundary: a full queue must reject the
 * request *now* (so the caller gets Unavailable instead of unbounded
 * latency), while consumers block until work or shutdown arrives.
 * The pushes are therefore non-blocking, and they fail once the queue
 * is closed so producers and consumers drain cleanly during shutdown.
 */

#ifndef RHMD_SUPPORT_BOUNDED_QUEUE_HH
#define RHMD_SUPPORT_BOUNDED_QUEUE_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>
#include <vector>

#include "support/logging.hh"

namespace rhmd::support
{

/**
 * Mutex-and-condvar bounded FIFO. All members are thread-safe; the
 * queue never copies elements (move in, move out), so promise-bearing
 * request types work naturally.
 */
template <typename T>
class BoundedQueue
{
  public:
    /** @param capacity maximum queued elements; must be positive. */
    explicit BoundedQueue(std::size_t capacity) : capacity_(capacity)
    {
        fatal_if(capacity_ == 0, "BoundedQueue capacity must be > 0");
    }

    BoundedQueue(const BoundedQueue &) = delete;
    BoundedQueue &operator=(const BoundedQueue &) = delete;

    /**
     * Non-blocking enqueue: false when the queue is full or closed
     * (the shedding path — the caller owns @p item again and decides
     * what to tell its client). On success, @p depth_out (when
     * non-null) receives the depth including this item, so callers
     * can track queue pressure without re-locking.
     */
    bool
    tryPush(T &&item, std::size_t *depth_out = nullptr)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (closed_ || items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
            if (depth_out != nullptr)
                *depth_out = items_.size();
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Non-blocking enqueue that may reclaim dead capacity: when the
     * queue is full, elements for which @p expired returns true are
     * moved from the front into @p evicted (oldest first) until space
     * opens up. Returns false — with @p item intact and @p evicted
     * possibly non-empty — when the queue is closed or still full
     * after eviction. The caller owns the evicted elements and
     * decides what to tell their clients (the serving layer sheds
     * them under its deadline counter rather than letting expired
     * work occupy capacity that live requests are rejected for).
     */
    template <typename Expired>
    bool
    tryPushEvicting(T &&item, Expired &&expired,
                    std::vector<T> &evicted,
                    std::size_t *depth_out = nullptr)
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            if (closed_)
                return false;
            while (items_.size() >= capacity_ &&
                   expired(items_.front())) {
                evicted.push_back(std::move(items_.front()));
                items_.pop_front();
            }
            if (items_.size() >= capacity_)
                return false;
            items_.push_back(std::move(item));
            if (depth_out != nullptr)
                *depth_out = items_.size();
        }
        notEmpty_.notify_one();
        return true;
    }

    /**
     * Blocking batch dequeue: waits until at least one element is
     * available (or the queue is closed and empty), then moves up to
     * @p max_batch elements into @p out (cleared first). Returns the
     * number taken; 0 means closed-and-drained, the consumer's signal
     * to exit.
     */
    std::size_t
    popBatch(std::vector<T> &out, std::size_t max_batch)
    {
        fatal_if(max_batch == 0, "popBatch needs max_batch > 0");
        out.clear();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            notEmpty_.wait(lock, [this] {
                return closed_ || !items_.empty();
            });
            while (!items_.empty() && out.size() < max_batch) {
                out.push_back(std::move(items_.front()));
                items_.pop_front();
            }
        }
        return out.size();
    }

    /**
     * Close the queue: pending elements stay poppable, further
     * pushes fail, and blocked consumers wake once it drains.
     */
    void
    close()
    {
        {
            const std::lock_guard<std::mutex> lock(mutex_);
            closed_ = true;
        }
        notEmpty_.notify_all();
    }

    bool
    closed() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return closed_;
    }

    /** Instantaneous depth (racy by nature; metrics only). */
    std::size_t
    size() const
    {
        const std::lock_guard<std::mutex> lock(mutex_);
        return items_.size();
    }

    std::size_t capacity() const { return capacity_; }

  private:
    const std::size_t capacity_;
    mutable std::mutex mutex_;
    std::condition_variable notEmpty_;
    std::deque<T> items_;
    bool closed_ = false;
};

} // namespace rhmd::support

#endif // RHMD_SUPPORT_BOUNDED_QUEUE_HH

/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Supplies the cache-miss events of the Architectural feature family
 * (the paper collects these from the hardware performance-monitoring
 * unit; we model the unit itself).
 */

#ifndef RHMD_UARCH_CACHE_HH
#define RHMD_UARCH_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rhmd::uarch
{

/** Geometry of a cache. */
struct CacheConfig
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 8;
    std::uint32_t lineBytes = 64;
};

/**
 * A single-level set-associative cache with true-LRU replacement.
 * Tracks hit/miss counts; accesses spanning a line boundary touch
 * every covered line (that is what makes unaligned accesses cost
 * extra in the CPI model).
 *
 * Each set keeps a tag per way and an LRU rank per way (0 = most
 * recently used). Invalid ways hold a tag no line can have and the
 * highest ranks, so a miss always fills the way of rank assoc - 1:
 * an invalid way while one is left, else the least recently used.
 * True LRU is a total order, so ranks evict exactly the line that
 * per-way use timestamps would. The line touched last is resident
 * and already most recent, so touching it again is a hit that
 * changes nothing; that check runs before the set is searched.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access one line. @return true on hit; on miss the line is
     * filled (allocate-on-miss for both reads and writes).
     */
    bool accessLine(std::uint64_t addr) { return touch(addr >> lineShift_); }

    /**
     * Access @p size bytes at @p addr, touching every covered line.
     * @return number of misses among the covered lines.
     */
    [[gnu::always_inline]] std::uint32_t
    access(std::uint64_t addr, std::uint32_t size)
    {
        if (size == 0)
            size = 1;
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last = (addr + size - 1) >> lineShift_;
        std::uint32_t line_misses = 0;
        for (std::uint64_t line = first; line <= last; ++line)
            line_misses += touch(line) ? 0 : 1;
        return line_misses;
    }

    /** Invalidate all contents and zero statistics. */
    void reset();

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    const CacheConfig &config() const { return config_; }

    /** Number of sets (derived from the geometry). */
    std::uint32_t numSets() const { return numSets_; }

  private:
    /**
     * Tag of an invalid way, and lastLine_ before any access. Lines
     * are at least 2 bytes, so no line number or tag reaches it.
     */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};

    /** Touch line number @p line. @return true on hit. */
    [[gnu::always_inline]] bool
    touch(std::uint64_t line)
    {
        if (line == lastLine_) {
            ++hits_;
            return true;
        }
        lastLine_ = line;
        const std::uint32_t assoc = config_.assoc;
        const std::size_t base =
            static_cast<std::size_t>(line & (numSets_ - 1)) * assoc;
        const std::uint64_t tag = line >> setShift_;
        const std::uint64_t *tags = tags_.data() + base;
        std::uint32_t way = assoc;
        for (std::uint32_t w = 0; w < assoc; ++w)
            way = tags[w] == tag ? w : way;
        if (way == assoc) [[unlikely]] {
            fill(base, tag);
            return false;
        }
        std::uint32_t *ranks = ranks_.data() + base;
        const std::uint32_t rank = ranks[way];
        for (std::uint32_t w = 0; w < assoc; ++w)
            ranks[w] += ranks[w] < rank ? 1 : 0;
        ranks[way] = 0;
        ++hits_;
        return true;
    }

    /** Miss: evict the set's rank assoc - 1 way and fill @p tag. */
    void fill(std::size_t base, std::uint64_t tag);

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::uint32_t setShift_;   ///< log2(numSets_): line to tag
    std::vector<std::uint64_t> tags_;   ///< numSets_ * assoc, set-major
    std::vector<std::uint32_t> ranks_;  ///< LRU rank per way, same layout
    std::uint64_t lastLine_ = kInvalidTag;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace rhmd::uarch

#endif // RHMD_UARCH_CACHE_HH

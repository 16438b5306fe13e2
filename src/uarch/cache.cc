/**
 * @file
 * Set-associative LRU cache implementation.
 */

#include "uarch/cache.hh"

#include <bit>

#include "support/logging.hh"

namespace rhmd::uarch
{

Cache::Cache(const CacheConfig &config)
    : config_(config)
{
    // A line of at least 2 bytes keeps every line number and tag
    // below 2^63, so the all-ones kInvalidTag never names a line.
    fatal_if(config_.lineBytes < 2 ||
             !std::has_single_bit(config_.lineBytes),
             "cache line size must be a power of two of at least 2 bytes");
    fatal_if(config_.assoc == 0, "cache associativity must be positive");
    const std::uint32_t lines = config_.sizeBytes / config_.lineBytes;
    fatal_if(lines == 0 || lines % config_.assoc != 0,
             "cache size must be a multiple of assoc * line size");
    numSets_ = lines / config_.assoc;
    fatal_if(!std::has_single_bit(numSets_),
             "cache set count must be a power of two");
    lineShift_ = static_cast<std::uint32_t>(
        std::countr_zero(config_.lineBytes));
    setShift_ = static_cast<std::uint32_t>(std::countr_zero(numSets_));
    const std::size_t ways =
        static_cast<std::size_t>(numSets_) * config_.assoc;
    tags_.resize(ways);
    ranks_.resize(ways);
    reset();
}

void
Cache::fill(std::size_t base, std::uint64_t tag)
{
    const std::uint32_t assoc = config_.assoc;
    std::uint32_t *ranks = ranks_.data() + base;
    std::uint32_t victim = 0;
    for (std::uint32_t w = 0; w < assoc; ++w) {
        if (ranks[w] == assoc - 1)
            victim = w;
        ++ranks[w];
    }
    ranks[victim] = 0;
    tags_[base + victim] = tag;
    ++misses_;
}

void
Cache::reset()
{
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        tags_[i] = kInvalidTag;
        ranks_[i] = static_cast<std::uint32_t>(i % config_.assoc);
    }
    lastLine_ = kInvalidTag;
    hits_ = 0;
    misses_ = 0;
}

} // namespace rhmd::uarch

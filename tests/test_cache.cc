/**
 * @file
 * Tests of the set-associative cache model.
 */

#include <gtest/gtest.h>

#include <bit>
#include <vector>

#include "support/rng.hh"
#include "uarch/cache.hh"

namespace
{

using namespace rhmd::uarch;

TEST(Cache, ColdMissThenHit)
{
    Cache cache({1024, 2, 64});
    EXPECT_FALSE(cache.accessLine(0x1000));
    EXPECT_TRUE(cache.accessLine(0x1000));
    EXPECT_TRUE(cache.accessLine(0x1004));  // same line
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(Cache, GeometryDerivation)
{
    Cache cache({32 * 1024, 8, 64});
    EXPECT_EQ(cache.numSets(), 64u);
}

TEST(Cache, LruEvictsOldest)
{
    // Direct-mapped-ish: 2 ways, 1 set => size = 2 lines.
    Cache cache({128, 2, 64});
    EXPECT_EQ(cache.numSets(), 1u);
    EXPECT_FALSE(cache.accessLine(0x0000));   // A miss
    EXPECT_FALSE(cache.accessLine(0x1000));   // B miss
    EXPECT_TRUE(cache.accessLine(0x0000));    // A hit (B is LRU)
    EXPECT_FALSE(cache.accessLine(0x2000));   // C miss, evicts B
    EXPECT_TRUE(cache.accessLine(0x0000));    // A still present
    EXPECT_FALSE(cache.accessLine(0x1000));   // B was evicted
}

TEST(Cache, SetIndexingSeparatesLines)
{
    // 2 sets, 1 way each.
    Cache cache({128, 1, 64});
    EXPECT_EQ(cache.numSets(), 2u);
    EXPECT_FALSE(cache.accessLine(0x000));  // set 0
    EXPECT_FALSE(cache.accessLine(0x040));  // set 1
    EXPECT_TRUE(cache.accessLine(0x000));   // both still resident
    EXPECT_TRUE(cache.accessLine(0x040));
}

TEST(Cache, ConflictMissesInOneSet)
{
    Cache cache({128, 1, 64});
    EXPECT_FALSE(cache.accessLine(0x000));
    EXPECT_FALSE(cache.accessLine(0x080));  // same set, evicts
    EXPECT_FALSE(cache.accessLine(0x000));  // miss again
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(Cache, UnalignedAccessTouchesTwoLines)
{
    Cache cache({1024, 2, 64});
    // 8 bytes starting 4 bytes before a line boundary.
    EXPECT_EQ(cache.access(0x103c, 8), 2u);  // both lines cold
    EXPECT_EQ(cache.access(0x103c, 8), 0u);  // both now resident
}

TEST(Cache, AlignedAccessTouchesOneLine)
{
    Cache cache({1024, 2, 64});
    EXPECT_EQ(cache.access(0x1000, 8), 1u);
    EXPECT_EQ(cache.access(0x1008, 8), 0u);
}

TEST(Cache, ZeroSizeTreatedAsOneByte)
{
    Cache cache({1024, 2, 64});
    EXPECT_EQ(cache.access(0x2000, 0), 1u);
    EXPECT_EQ(cache.access(0x2000, 0), 0u);
}

TEST(Cache, ResetClearsContentsAndStats)
{
    Cache cache({1024, 2, 64});
    cache.accessLine(0x3000);
    cache.accessLine(0x3000);
    cache.reset();
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    EXPECT_FALSE(cache.accessLine(0x3000));  // cold again
}

TEST(Cache, WorkingSetLargerThanCacheThrashes)
{
    Cache cache({4096, 4, 64});  // 64 lines
    // Touch 128 distinct lines repeatedly: all misses after warmup
    // under LRU with a cyclic pattern.
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t line = 0; line < 128; ++line)
            cache.accessLine(line * 64);
    }
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 3u * 128u);
}

TEST(Cache, WorkingSetSmallerThanCacheStaysResident)
{
    Cache cache({4096, 4, 64});  // 64 lines
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t line = 0; line < 32; ++line)
            cache.accessLine(line * 64);
    }
    EXPECT_EQ(cache.misses(), 32u);            // cold only
    EXPECT_EQ(cache.hits(), 3u * 32u);
}

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_EXIT(Cache({100, 2, 60}), ::testing::ExitedWithCode(1),
                "power of two");
    EXPECT_EXIT(Cache({1024, 0, 64}), ::testing::ExitedWithCode(1),
                "associativity");
    EXPECT_EXIT(Cache({96, 2, 32}), ::testing::ExitedWithCode(1),
                "multiple");
    // 1-byte lines: a tag could then be all ones, which marks an
    // invalid way.
    EXPECT_EXIT(Cache({64, 4, 1}), ::testing::ExitedWithCode(1),
                "at least 2 bytes");
}

/**
 * The timestamp-LRU cache Cache replaced, kept verbatim as the
 * reference: every way records its last-use tick, a miss fills the
 * last invalid way or else the way with the oldest tick.
 */
class TimestampLruCache
{
  public:
    explicit TimestampLruCache(const CacheConfig &config)
        : config_(config),
          numSets_(config.sizeBytes / config.lineBytes / config.assoc),
          lineShift_(static_cast<std::uint32_t>(
              std::countr_zero(config.lineBytes))),
          ways_(static_cast<std::size_t>(numSets_) * config.assoc)
    {
    }

    bool
    accessLine(std::uint64_t addr)
    {
        ++tick_;
        const std::uint64_t line = addr >> lineShift_;
        const std::uint32_t set =
            static_cast<std::uint32_t>(line & (numSets_ - 1));
        const std::uint64_t tag = line >> std::countr_zero(numSets_);

        Way *base = &ways_[static_cast<std::size_t>(set) * config_.assoc];
        Way *victim = base;
        for (std::uint32_t w = 0; w < config_.assoc; ++w) {
            Way &way = base[w];
            if (way.valid && way.tag == tag) {
                way.lastUse = tick_;
                ++hits_;
                return true;
            }
            if (!way.valid) {
                victim = &way;
            } else if (victim->valid && way.lastUse < victim->lastUse) {
                victim = &way;
            }
        }

        ++misses_;
        victim->valid = true;
        victim->tag = tag;
        victim->lastUse = tick_;
        return false;
    }

    std::uint32_t
    access(std::uint64_t addr, std::uint32_t size)
    {
        if (size == 0)
            size = 1;
        const std::uint64_t first = addr >> lineShift_;
        const std::uint64_t last = (addr + size - 1) >> lineShift_;
        std::uint32_t line_misses = 0;
        for (std::uint64_t line = first; line <= last; ++line) {
            if (!accessLine(line << lineShift_))
                ++line_misses;
        }
        return line_misses;
    }

    void
    reset()
    {
        for (Way &way : ways_)
            way = {};
        tick_ = 0;
        hits_ = 0;
        misses_ = 0;
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    CacheConfig config_;
    std::uint32_t numSets_;
    std::uint32_t lineShift_;
    std::vector<Way> ways_;
    std::uint64_t tick_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

class CacheDifferential : public ::testing::TestWithParam<CacheConfig>
{
};

/**
 * Rank LRU with the same-line fast path against the timestamp
 * reference: 1M seeded accesses per geometry in bursts of
 * sequential, strided and random addresses over working sets of
 * 0.5-4x the capacity, with sizes 0-100 bytes at offsets that cross
 * lines, direct line probes, and a reset every 300k accesses.
 */
TEST_P(CacheDifferential, MatchesTimestampLruAccessForAccess)
{
    const CacheConfig config = GetParam();
    Cache cache(config);
    TimestampLruCache reference(config);
    rhmd::Rng rng(0xcace + config.sizeBytes + config.assoc);

    constexpr std::uint64_t kAccesses = 1'000'000;
    const std::uint32_t sizes[] = {0, 1, 8, 16, 100};
    const double scales[] = {0.5, 1.0, 2.0, 4.0};
    std::uint64_t done = 0;
    while (done < kAccesses) {
        const auto working_set = static_cast<std::uint64_t>(
            scales[rng.below(4)] * config.sizeBytes);
        const std::uint64_t base = rng.below(1ULL << 40);
        const std::uint64_t pattern = rng.below(3);
        const std::uint64_t stride =
            pattern == 0 ? 1 + rng.below(24) : 8 + rng.below(512);
        const std::uint64_t burst = 1 + rng.below(4000);
        std::uint64_t cursor = rng.below(working_set);
        for (std::uint64_t i = 0; i < burst && done < kAccesses;
             ++i, ++done) {
            if (done % 300'000 == 299'999) {
                cache.reset();
                reference.reset();
            }
            std::uint64_t offset = cursor;
            if (pattern == 2)
                offset = rng.below(working_set);
            cursor = (cursor + stride) % working_set;
            const std::uint64_t addr = base + offset;
            if (rng.below(16) == 0) {
                const bool hit = cache.accessLine(addr);
                if (hit != reference.accessLine(addr)) {
                    ADD_FAILURE() << "line probe " << done << " at 0x"
                                  << std::hex << addr;
                    return;
                }
                continue;
            }
            const std::uint32_t size = sizes[rng.below(5)];
            const std::uint32_t misses = cache.access(addr, size);
            const std::uint32_t expected = reference.access(addr, size);
            if (misses != expected) {
                ADD_FAILURE() << "access " << done << " at 0x" << std::hex
                              << addr << std::dec << " size " << size
                              << ": " << misses << " misses, reference "
                              << expected;
                return;
            }
        }
    }
    EXPECT_EQ(cache.hits(), reference.hits());
    EXPECT_EQ(cache.misses(), reference.misses());
    EXPECT_GT(cache.misses(), 0u);
    EXPECT_GT(cache.hits(), cache.misses());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheDifferential,
    ::testing::Values(CacheConfig{32 * 1024, 8, 64},
                      CacheConfig{4 * 1024, 1, 64},
                      CacheConfig{8 * 1024, 2, 32},
                      CacheConfig{64 * 1024, 16, 64}));

/** Property sweep over geometries. */
struct Geometry
{
    std::uint32_t size;
    std::uint32_t assoc;
    std::uint32_t line;
};

class CacheGeometrySweep : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometrySweep, SequentialScanMissesOncePerLine)
{
    const Geometry g = GetParam();
    Cache cache({g.size, g.assoc, g.line});
    const std::uint32_t lines = g.size / g.line;
    // Scan exactly the cache's worth of lines, byte by byte.
    for (std::uint64_t addr = 0;
         addr < static_cast<std::uint64_t>(lines) * g.line; addr += 4) {
        cache.access(addr, 4);
    }
    EXPECT_EQ(cache.misses(), lines);
    // Second pass: everything resident.
    const std::uint64_t misses_before = cache.misses();
    for (std::uint64_t addr = 0;
         addr < static_cast<std::uint64_t>(lines) * g.line; addr += 4) {
        cache.access(addr, 4);
    }
    EXPECT_EQ(cache.misses(), misses_before);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometrySweep,
    ::testing::Values(Geometry{1024, 1, 32}, Geometry{1024, 2, 64},
                      Geometry{4096, 4, 64}, Geometry{32768, 8, 64},
                      Geometry{8192, 8, 128}, Geometry{65536, 16, 64}));

} // namespace

/**
 * @file
 * Tests for the hardware buddy cache model: hit/miss semantics, LRU
 * eviction, write-back of dirty victims, statistics, and capacity
 * parameterization (the Fig 16 sweep axis).
 */

#include <gtest/gtest.h>

#include "sim/buddy_cache.hh"

using namespace pim::sim;

namespace {

BuddyCache
withEntries(unsigned entries)
{
    BuddyCacheConfig cfg;
    cfg.entries = entries;
    return BuddyCache(cfg);
}

} // namespace

TEST(BuddyCache, MissThenHit)
{
    BuddyCache c;
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_EQ(c.stats().lookups, 2u);
    EXPECT_EQ(c.stats().hits, 1u);
    EXPECT_EQ(c.stats().misses, 1u);
    EXPECT_EQ(c.stats().evictions, 0u); // the miss filled a free entry
}

TEST(BuddyCache, LruEvictsOldest)
{
    BuddyCache c = withEntries(4);
    for (uint32_t i = 0; i < 4; ++i)
        c.access(i * 4, false);
    // Touch entries 0..2, leaving 12 as LRU.
    for (uint32_t i = 0; i < 3; ++i)
        EXPECT_TRUE(c.access(i * 4, false).hit);
    EXPECT_FALSE(c.access(0x1000, false).hit);
    EXPECT_EQ(c.stats().evictions, 1u);
    // Hits leave residency alone, so probe the survivors first.
    EXPECT_TRUE(c.access(0x1000, false).hit);
    for (uint32_t i = 0; i < 3; ++i)
        EXPECT_TRUE(c.access(i * 4, false).hit);
    EXPECT_FALSE(c.access(12, false).hit); // the victim was 12
}

TEST(BuddyCache, DirtyEvictionReturnsWriteback)
{
    BuddyCache c = withEntries(2);
    c.access(0, false);
    c.access(4, true); // dirty fill
    c.access(4, false); // a read hit keeps it dirty; 0 is now LRU
    EXPECT_EQ(c.access(8, false).writeBack, kNullAddr); // 0 was clean
    EXPECT_EQ(c.access(12, false).writeBack, 4u);       // 4 was dirty
    EXPECT_EQ(c.stats().evictions, 2u);
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(BuddyCache, WriteMarksDirty)
{
    BuddyCache c = withEntries(1);
    c.access(0, false);
    EXPECT_TRUE(c.access(0, true).hit);
    EXPECT_EQ(c.access(4, false).writeBack, 0u);
    // The refill was clean, so its own eviction writes nothing back.
    EXPECT_EQ(c.access(8, false).writeBack, kNullAddr);
    EXPECT_EQ(c.stats().dirtyEvictions, 1u);
}

TEST(BuddyCache, InitInvalidatesAll)
{
    BuddyCache c = withEntries(1);
    c.access(0, true);
    c.init();
    // The dirty entry is gone without a write-back, and the next miss
    // fills a free entry instead of evicting.
    const BuddyCache::Access a = c.access(0, false);
    EXPECT_FALSE(a.hit);
    EXPECT_EQ(a.writeBack, kNullAddr);
    EXPECT_EQ(c.stats().evictions, 0u);
}

TEST(BuddyCache, HitRate)
{
    BuddyCache c;
    c.access(0, false); // miss
    c.access(0, false);
    c.access(0, true);
    c.access(4, false); // miss
    EXPECT_NEAR(c.stats().hitRate(), 2.0 / 4.0, 1e-9);
}

TEST(BuddyCache, ResetStatsKeepsContents)
{
    BuddyCache c;
    c.access(0, false);
    c.resetStats();
    EXPECT_EQ(c.stats().lookups, 0u);
    EXPECT_TRUE(c.access(0, false).hit);
}

/** Capacity sweep: the cache holds exactly its configured entries. */
class BuddyCacheCapacity : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(BuddyCacheCapacity, HoldsExactlyCapacityEntries)
{
    const unsigned n = GetParam();
    BuddyCache c = withEntries(n);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_FALSE(c.access(i * 4, false).hit);
    for (uint32_t i = 0; i < n; ++i)
        EXPECT_TRUE(c.access(i * 4, false).hit);
    EXPECT_EQ(c.stats().evictions, 0u);
    // One more word evicts the LRU word 0 and nothing else.
    EXPECT_FALSE(c.access(n * 4, false).hit);
    for (uint32_t i = 1; i <= n; ++i)
        EXPECT_TRUE(c.access(i * 4, false).hit);
    EXPECT_FALSE(c.access(0, false).hit);
    EXPECT_EQ(c.stats().evictions, 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BuddyCacheCapacity,
                         ::testing::Values(1, 4, 8, 16, 32, 64));

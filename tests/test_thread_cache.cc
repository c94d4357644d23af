/**
 * @file
 * Tests for the per-tasklet thread cache: size-class mapping, bitmap
 * allocation, span install/release, free-path validation, the WRAM
 * record budget, and the charged cost of a miss.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "alloc/thread_cache.hh"
#include "sim/dpu.hh"
#include "util/rng.hh"

using namespace pim;
using namespace pim::alloc;

namespace {

class ThreadCacheTest : public ::testing::Test
{
  protected:
    ThreadCacheTest() : cache(0, ThreadCacheConfig{}) {}

    void
    run(const std::function<void(sim::Tasklet &)> &fn)
    {
        dpu.run(1, [&](sim::Tasklet &t) {
            t.execute(1);
            fn(t);
        });
    }

    sim::Dpu dpu;
    ThreadCache cache;
};

} // namespace

TEST_F(ThreadCacheTest, PaperSizeClasses)
{
    // 8 classes, 16 B .. 2 KB (Section IV-A).
    EXPECT_EQ(cache.numClasses(), 8u);
    EXPECT_EQ(cache.classSize(0), 16u);
    EXPECT_EQ(cache.classSize(7), 2048u);
}

TEST_F(ThreadCacheTest, ClassForMapsToSmallestFit)
{
    EXPECT_EQ(cache.classFor(1), 0);
    EXPECT_EQ(cache.classFor(16), 0);
    EXPECT_EQ(cache.classFor(17), 1);
    EXPECT_EQ(cache.classFor(2048), 7);
    EXPECT_EQ(cache.classFor(2049), -1); // bypass
    EXPECT_EQ(cache.classFor(8192), -1);
}

TEST_F(ThreadCacheTest, EmptyCacheMisses)
{
    run([&](sim::Tasklet &t) {
        EXPECT_EQ(cache.tryAlloc(t, 0), sim::kNullAddr);
    });
}

TEST_F(ThreadCacheTest, SpanSubdivision)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 7, 0x10000); // 2 KB class
        EXPECT_EQ(cache.freeBlocks(7), 2u); // 4 KB span -> 2 sub-blocks
        const auto a = cache.tryAlloc(t, 7);
        const auto b = cache.tryAlloc(t, 7);
        EXPECT_EQ(a, 0x10000u);
        EXPECT_EQ(b, 0x10000u + 2048u);
        EXPECT_EQ(cache.tryAlloc(t, 7), sim::kNullAddr); // exhausted
    });
}

TEST_F(ThreadCacheTest, SmallestClassHas256Blocks)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 0, 0x20000); // 16 B class
        EXPECT_EQ(cache.freeBlocks(0), 256u);
        std::set<sim::MramAddr> seen;
        for (int i = 0; i < 256; ++i) {
            const auto a = cache.tryAlloc(t, 0);
            ASSERT_NE(a, sim::kNullAddr);
            ASSERT_TRUE(seen.insert(a).second);
            ASSERT_GE(a, 0x20000u);
            ASSERT_LT(a, 0x20000u + 4096u);
        }
        EXPECT_EQ(cache.tryAlloc(t, 0), sim::kNullAddr);
    });
}

TEST_F(ThreadCacheTest, FreeThenReallocateSameBlock)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 3, 0x30000); // 128 B class
        const auto a = cache.tryAlloc(t, 3);
        const auto res = cache.free(t, 3, 0x30000, a);
        EXPECT_TRUE(res.ok);
        EXPECT_FALSE(res.spanReleased); // last span stays cached
        EXPECT_EQ(cache.tryAlloc(t, 3), a); // lowest free bit again
    });
}

TEST_F(ThreadCacheTest, DoubleFreeRejected)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 2, 0x40000);
        const auto a = cache.tryAlloc(t, 2);
        EXPECT_TRUE(cache.free(t, 2, 0x40000, a).ok);
        EXPECT_FALSE(cache.free(t, 2, 0x40000, a).ok);
    });
}

TEST_F(ThreadCacheTest, ForeignAndMisalignedFreesRejected)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 2, 0x40000); // 64 B class
        cache.tryAlloc(t, 2);
        // Unknown span base.
        EXPECT_FALSE(cache.free(t, 2, 0x50000, 0x50000).ok);
        // Misaligned address inside the span.
        EXPECT_FALSE(cache.free(t, 2, 0x40000, 0x40000 + 13).ok);
        // Beyond the span's sub-blocks.
        EXPECT_FALSE(cache.free(t, 2, 0x40000, 0x40000 + 8192).ok);
    });
}

TEST_F(ThreadCacheTest, EmptyNonLastSpanIsReleased)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 7, 0x10000);
        cache.installSpan(t, 7, 0x20000);
        EXPECT_EQ(cache.spanCount(7), 2u);
        const auto a = cache.tryAlloc(t, 7);
        const sim::MramAddr span = a & ~uint32_t{4095};
        const auto res = cache.free(t, 7, span, a);
        EXPECT_TRUE(res.ok);
        EXPECT_TRUE(res.spanReleased);
        EXPECT_EQ(res.spanBase, span);
        EXPECT_EQ(cache.spanCount(7), 1u);
    });
}

TEST_F(ThreadCacheTest, SecondSpanServicesOverflow)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 7, 0x10000);
        cache.tryAlloc(t, 7);
        cache.tryAlloc(t, 7); // first span now full
        cache.installSpan(t, 7, 0x20000);
        EXPECT_EQ(cache.tryAlloc(t, 7), 0x20000u);
    });
}

TEST_F(ThreadCacheTest, FreeBlocksCountsAcrossSpans)
{
    run([&](sim::Tasklet &t) {
        cache.installSpan(t, 6, 0x10000); // 1 KB: 4 per span
        cache.installSpan(t, 6, 0x20000);
        EXPECT_EQ(cache.freeBlocks(6), 8u);
        cache.tryAlloc(t, 6);
        EXPECT_EQ(cache.freeBlocks(6), 7u);
    });
}

TEST_F(ThreadCacheTest, MissChargesEveryHop)
{
    // A miss on a class of N full spans pays the hit bookkeeping (14
    // instructions) plus 2 per hop: one for each span and one more for
    // the head it finds full again, N + 2 charges in all. Alone on the
    // DPU each instruction costs the 11-cycle issue interval.
    for (const uint64_t n : {1u, 7u, 64u}) {
        ThreadCache tc(0, ThreadCacheConfig{});
        run([&](sim::Tasklet &t) {
            for (uint64_t i = 0; i < n; ++i)
                tc.installSpan(
                    t, 7, 0x10000 + static_cast<sim::MramAddr>(i) * 4096);
            for (uint64_t i = 0; i < 2 * n; ++i) // 2 KB: 2 per span
                ASSERT_NE(tc.tryAlloc(t, 7), sim::kNullAddr);
            ASSERT_EQ(tc.freeBlocks(7), 0u);
            const uint64_t events = t.simEvents();
            const uint64_t clock = t.clock();
            EXPECT_EQ(tc.tryAlloc(t, 7), sim::kNullAddr);
            EXPECT_EQ(t.simEvents() - events, n + 2) << "N = " << n;
            EXPECT_EQ(t.clock() - clock, (14 + 2 * (n + 1)) * 11)
                << "N = " << n;
            EXPECT_EQ(tc.spanCount(7), n);
        });
    }
    // An empty class has no span to hop: the bookkeeping alone.
    run([&](sim::Tasklet &t) {
        const uint64_t events = t.simEvents();
        const uint64_t clock = t.clock();
        EXPECT_EQ(cache.tryAlloc(t, 3), sim::kNullAddr);
        EXPECT_EQ(t.simEvents() - events, 1u);
        EXPECT_EQ(t.clock() - clock, 14u * 11u);
    });
}

TEST_F(ThreadCacheTest, MissOnlyWhenClassHasNoFreeBlock)
{
    // Seeded install/alloc/free churn over every class, refilling a
    // class only when it misses (as pimMalloc does). A miss must mean
    // the class has no free block at all: spans with free blocks are
    // kept ahead of full ones, so a full head implies a full class.
    struct Live
    {
        sim::MramAddr addr;
        sim::MramAddr span;
    };
    std::vector<std::vector<Live>> live(cache.numClasses());
    util::Rng rng(2024);
    sim::MramAddr next_span = 0x10000;
    uint64_t misses = 0, multi_span_misses = 0, released = 0,
             last_span_kept = 0;
    run([&](sim::Tasklet &t) {
        for (int phase = 0; phase < 12; ++phase) {
            // Alternate growing and draining phases so classes fill up,
            // empty spans are released, and classes shrink to one span.
            const double p_alloc = phase % 2 == 0 ? 0.75 : 0.2;
            for (int i = 0; i < 2500; ++i) {
                const unsigned cls =
                    static_cast<unsigned>(rng.uniformInt(cache.numClasses()));
                auto &mine = live[cls];
                if (mine.empty() || rng.bernoulli(p_alloc)) {
                    sim::MramAddr a = cache.tryAlloc(t, cls);
                    if (a == sim::kNullAddr) {
                        ++misses;
                        multi_span_misses += cache.spanCount(cls) > 1;
                        ASSERT_EQ(cache.freeBlocks(cls), 0u)
                            << "miss with free blocks in class " << cls;
                        cache.installSpan(t, cls, next_span);
                        next_span += 4096;
                        a = cache.tryAlloc(t, cls);
                        ASSERT_NE(a, sim::kNullAddr);
                    }
                    mine.push_back({a, a & ~sim::MramAddr{4095}});
                } else {
                    const size_t idx = rng.uniformInt(mine.size());
                    const Live b = mine[idx];
                    mine[idx] = mine.back();
                    mine.pop_back();
                    const auto res = cache.free(t, cls, b.span, b.addr);
                    ASSERT_TRUE(res.ok);
                    released += res.spanReleased;
                    last_span_kept += !res.spanReleased
                        && cache.spanCount(cls) == 1
                        && cache.freeBlocks(cls)
                            == 4096 / cache.classSize(cls);
                }
            }
        }
    });
    // The churn reached every path the invariant has to survive.
    EXPECT_GT(misses, 0u);
    EXPECT_GT(multi_span_misses, 0u);
    EXPECT_GT(released, 0u);
    EXPECT_GT(last_span_kept, 0u);
}

TEST(ThreadCacheConfigDeath, RejectsBadClasses)
{
    ThreadCacheConfig bad;
    bad.sizeClasses = {16, 48}; // 48 not a power of two
    EXPECT_DEATH(ThreadCache(0, bad), "powers of two");
    ThreadCacheConfig bad2;
    bad2.sizeClasses = {16, 16};
    EXPECT_DEATH(ThreadCache(0, bad2), "ascending");
    ThreadCacheConfig bad3;
    bad3.sizeClasses = {8}; // 4096/8 = 512 > 256-bit bitmap
    EXPECT_DEATH(ThreadCache(0, bad3), "bitmap");
}

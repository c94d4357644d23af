/**
 * @file
 * Tests for the scratchpad buddy allocator (UPMEM SDK buddy_alloc
 * equivalent), including a differential test against BuddyTree: both
 * implement first-fit buddy allocation, so identical request sequences
 * must yield identical offsets.
 */

#include <gtest/gtest.h>

#include <set>

#include "alloc/buddy_tree.hh"
#include "alloc/wram_buddy.hh"
#include "sim/dpu.hh"
#include "util/rng.hh"

using namespace pim;
using namespace pim::alloc;

TEST(WramBuddy, UpmemGeometry)
{
    sim::Dpu dpu;
    WramBuddy w(dpu); // 32 KB heap, 32 B min
    // log2(32 KB / 32 B) = 10 splits -> 11 levels (paper Section III-C).
    EXPECT_EQ(w.levels(), 11u);
    // Metadata under 512 B, as quoted in Section II-B.
    EXPECT_LE(w.metadataBytes(), 512u);
}

TEST(WramBuddy, AllocFreeRoundTrip)
{
    sim::Dpu dpu;
    WramBuddy w(dpu);
    dpu.run(1, [&](sim::Tasklet &t) {
        const uint32_t a = w.alloc(t, 100);
        ASSERT_NE(a, kWramNull);
        EXPECT_EQ(w.allocatedBytes(), 128u);
        EXPECT_TRUE(w.free(t, a));
        EXPECT_EQ(w.allocatedBytes(), 0u);
    });
}

TEST(WramBuddy, ReservesWramForHeapAndMetadata)
{
    sim::Dpu dpu;
    const uint32_t before = dpu.wramUsed();
    WramBuddy w(dpu, 8192, 32);
    EXPECT_GE(dpu.wramUsed() - before, 8192u);
}

TEST(WramBuddy, ExhaustionReturnsNull)
{
    sim::Dpu dpu;
    WramBuddy w(dpu, 1024, 32);
    dpu.run(1, [&](sim::Tasklet &t) {
        for (int i = 0; i < 32; ++i)
            EXPECT_NE(w.alloc(t, 32), kWramNull);
        EXPECT_EQ(w.alloc(t, 32), kWramNull);
    });
}

TEST(WramBuddy, RequestAbove2GiBReturnsNull)
{
    sim::Dpu dpu;
    WramBuddy w(dpu, 1024, 32);
    dpu.run(1, [&](sim::Tasklet &t) {
        EXPECT_EQ(w.alloc(t, 0x80000001u), kWramNull);
        EXPECT_EQ(w.alloc(t, UINT32_MAX), kWramNull);
        EXPECT_EQ(w.allocatedBytes(), 0u);
        EXPECT_NE(w.alloc(t, 1024), kWramNull);
    });
}

TEST(WramBuddy, DoubleFreeAndWildPointerRejected)
{
    sim::Dpu dpu;
    WramBuddy w(dpu, 1024, 32);
    dpu.run(1, [&](sim::Tasklet &t) {
        const uint32_t a = w.alloc(t, 32);
        EXPECT_TRUE(w.free(t, a));
        EXPECT_FALSE(w.free(t, a));
        EXPECT_FALSE(w.free(t, a + 7));
        EXPECT_FALSE(w.free(t, 0xffff0000u));
    });
}

TEST(WramBuddy, ThreadSafeUnderContention)
{
    sim::Dpu dpu;
    WramBuddy w(dpu, 16384, 32);
    std::set<uint32_t> seen;
    dpu.run(8, [&](sim::Tasklet &t) {
        for (int i = 0; i < 16; ++i) {
            const uint32_t a = w.alloc(t, 64);
            ASSERT_NE(a, kWramNull);
            // Mutual exclusion means no duplicate addresses.
            ASSERT_TRUE(seen.insert(a).second);
        }
    });
    EXPECT_EQ(seen.size(), 128u);
}

TEST(WramBuddy, MatchesBuddyTreeFirstFitOrder)
{
    sim::Dpu dpu;
    const uint32_t heap = 8192;
    const uint32_t min_block = 32;
    WramBuddy w(dpu, heap, min_block);
    DirectStore store(dpu, 0, BuddyTree::nodesFor(heap, min_block));
    BuddyTree tree(store, 0, heap, min_block);
    const uint32_t w_base = heap ? 0 : 0; // WramBuddy offsets its heap
    (void)w_base;

    dpu.run(1, [&](sim::Tasklet &t) {
        t.execute(1);
        util::Rng rng(5);
        std::vector<std::pair<uint32_t, sim::MramAddr>> live; // w, tree
        uint32_t w_heap_base = kWramNull;
        for (int i = 0; i < 500; ++i) {
            if (live.empty() || rng.bernoulli(0.6)) {
                const uint32_t size =
                    static_cast<uint32_t>(rng.uniformRange(1, 512));
                const uint32_t a = w.alloc(t, size);
                const sim::MramAddr b = tree.alloc(t, size);
                ASSERT_EQ(a == kWramNull, b == sim::kNullAddr);
                if (a == kWramNull)
                    continue;
                if (w_heap_base == kWramNull)
                    w_heap_base = a; // first alloc lands at heap base
                // Identical offsets relative to each heap base.
                ASSERT_EQ(a - w_heap_base, b);
                live.emplace_back(a, b);
            } else {
                const size_t idx = rng.uniformInt(live.size());
                ASSERT_TRUE(w.free(t, live[idx].first));
                ASSERT_GT(tree.free(t, live[idx].second), 0u);
                live.erase(live.begin() + static_cast<long>(idx));
            }
        }
    });
}

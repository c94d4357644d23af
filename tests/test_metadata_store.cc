/**
 * @file
 * Tests for the metadata access paths: functional equivalence
 * (identical state transitions regardless of store), SW buffer
 * hit/miss/write-back behaviour, HW cache traffic characteristics, and
 * goldens for the SW window, the buddy cache and the Section VII data
 * cache under scripted and allocator churn.
 */

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <vector>

#include "alloc/buddy_tree.hh"
#include "alloc/metadata_store.hh"
#include "alloc/pim_malloc.hh"
#include "alloc_churn.hh"
#include "sim/dpu.hh"
#include "util/rng.hh"

using namespace pim;
using namespace pim::alloc;

namespace {

constexpr uint32_t kNodes = 1024;

void
withTasklet(sim::Dpu &dpu, const std::function<void(sim::Tasklet &)> &fn)
{
    dpu.run(1, fn);
}

} // namespace

TEST(DirectStore, GetSetRoundTrip)
{
    sim::Dpu dpu;
    DirectStore s(dpu, 0, kNodes);
    withTasklet(dpu, [&](sim::Tasklet &t) {
        s.reset(t);
        EXPECT_EQ(s.get(t, 0), NodeState::Free);
        s.set(t, 0, NodeState::Allocated);
        s.set(t, 17, NodeState::Split);
        s.set(t, 1023, NodeState::Full);
        EXPECT_EQ(s.get(t, 0), NodeState::Allocated);
        EXPECT_EQ(s.get(t, 17), NodeState::Split);
        EXPECT_EQ(s.get(t, 1023), NodeState::Full);
        EXPECT_EQ(s.get(t, 16), NodeState::Free); // neighbors untouched
    });
}

TEST(DirectStore, PackingIsTwoBitsPerNode)
{
    sim::Dpu dpu;
    DirectStore s(dpu, 0, kNodes);
    EXPECT_EQ(s.bytes(), kNodes / 4);
}

TEST(DirectStore, NoDpuCost)
{
    sim::Dpu dpu;
    DirectStore s(dpu, 0, kNodes);
    withTasklet(dpu, [&](sim::Tasklet &t) {
        for (uint32_t i = 0; i < 100; ++i)
            s.set(t, i, NodeState::Split);
        t.execute(1); // scheduler wants at least one charge
    });
    EXPECT_EQ(dpu.lastElapsedCycles(), 11u);
}

TEST(SwBufferStore, HitsWithinWindow)
{
    sim::Dpu dpu;
    SwBufferStore s(dpu, 0, kNodes, 256);
    withTasklet(dpu, [&](sim::Tasklet &t) {
        s.get(t, 0); // first access: miss
        for (uint32_t i = 1; i < 100; ++i)
            s.get(t, i); // same window: hits
    });
    EXPECT_EQ(s.misses(), 1u);
    EXPECT_EQ(s.hits(), 99u);
}

TEST(SwBufferStore, AlternatingWindowsThrash)
{
    sim::Dpu dpu;
    // 256 B buffer = 1024 nodes per window; alternate across windows.
    SwBufferStore s(dpu, 0, 4096, 256);
    withTasklet(dpu, [&](sim::Tasklet &t) {
        for (int i = 0; i < 10; ++i) {
            s.get(t, 0);
            s.get(t, 2048);
        }
    });
    EXPECT_EQ(s.misses(), 20u);
    EXPECT_EQ(s.hits(), 0u);
}

TEST(SwBufferStore, DirtyFlushOnMissChargesWriteback)
{
    sim::Dpu dpu;
    SwBufferStore s(dpu, 0, 4096, 256);
    withTasklet(dpu, [&](sim::Tasklet &t) {
        s.set(t, 0, NodeState::Split); // miss + dirty
        const uint64_t w0 = dpu.traffic().metadataWriteBytes;
        s.get(t, 2048); // miss: must flush the dirty window first
        EXPECT_EQ(dpu.traffic().metadataWriteBytes, w0 + 256);
    });
}

TEST(SwBufferStore, CleanMissDoesNotWriteBack)
{
    sim::Dpu dpu;
    SwBufferStore s(dpu, 0, 4096, 256);
    withTasklet(dpu, [&](sim::Tasklet &t) {
        s.get(t, 0);
        const uint64_t w0 = dpu.traffic().metadataWriteBytes;
        s.get(t, 2048);
        EXPECT_EQ(dpu.traffic().metadataWriteBytes, w0);
    });
}

TEST(SwBufferStore, ReservesWram)
{
    sim::Dpu dpu;
    const uint32_t before = dpu.wramUsed();
    SwBufferStore s(dpu, 0, kNodes, 2048);
    EXPECT_EQ(dpu.wramUsed(), before + 2048);
}

TEST(HwCacheStore, FineGrainedMissTraffic)
{
    sim::Dpu dpu;
    HwCacheStore s(dpu, 0, kNodes);
    withTasklet(dpu, [&](sim::Tasklet &t) {
        s.get(t, 0); // miss: fetches exactly one 4 B word
        EXPECT_EQ(dpu.traffic().metadataReadBytes, 4u);
        s.get(t, 1); // same word: hit, no traffic
        EXPECT_EQ(dpu.traffic().metadataReadBytes, 4u);
        s.get(t, 16); // next word
        EXPECT_EQ(dpu.traffic().metadataReadBytes, 8u);
    });
    EXPECT_EQ(dpu.buddyCache().stats().hits, 1u);
    EXPECT_EQ(dpu.buddyCache().stats().misses, 2u);
}

TEST(HwCacheStore, DirtyEvictionWritesBackOneWord)
{
    sim::Dpu dpu; // 16-entry cache
    HwCacheStore s(dpu, 0, 16 * 17 * 16); // more words than entries
    withTasklet(dpu, [&](sim::Tasklet &t) {
        s.set(t, 0, NodeState::Split); // word 0 dirty
        // Touch 16 more distinct words to force eviction of word 0.
        for (uint32_t w = 1; w <= 16; ++w)
            s.get(t, w * 16);
        EXPECT_EQ(dpu.traffic().metadataWriteBytes, 4u);
    });
}

/** Property: all three stores produce identical visible state. */
class StoreEquivalence
    : public ::testing::TestWithParam<std::pair<int, int>>
{
};

TEST_P(StoreEquivalence, RandomOpsMatchDirect)
{
    const auto [seed, ops] = GetParam();
    sim::Dpu d_direct, d_sw, d_hw;
    DirectStore direct(d_direct, 0, kNodes);
    SwBufferStore sw(d_sw, 0, kNodes, 64);
    HwCacheStore hw(d_hw, 0, kNodes);

    util::Rng rng(static_cast<uint64_t>(seed));
    std::vector<std::pair<uint32_t, NodeState>> script;
    for (int i = 0; i < ops; ++i) {
        script.emplace_back(
            static_cast<uint32_t>(rng.uniformInt(kNodes)),
            static_cast<NodeState>(rng.uniformInt(4)));
    }

    auto apply = [&](sim::Dpu &dpu, auto &s) {
        dpu.run(1, [&](sim::Tasklet &t) {
            s.reset(t);
            for (const auto &[node, state] : script)
                s.set(t, node, state);
        });
    };
    apply(d_direct, direct);
    apply(d_sw, sw);
    apply(d_hw, hw);

    d_direct.run(1, [&](sim::Tasklet &t) {
        t.execute(1);
        for (uint32_t n = 0; n < kNodes; ++n) {
            const NodeState want = direct.get(t, n);
            sim::Tasklet *tp = &t;
            (void)tp;
            EXPECT_EQ(want, sw.get(t, n)) << "node " << n;
            EXPECT_EQ(want, hw.get(t, n)) << "node " << n;
        }
    });
}

INSTANTIATE_TEST_SUITE_P(
    RandomScripts, StoreEquivalence,
    ::testing::Values(std::make_pair(1, 50), std::make_pair(2, 500),
                      std::make_pair(3, 2000), std::make_pair(4, 5000)));

namespace {

/** Everything HwCacheStore.ChurnMatchesGolden pins for one cache size. */
struct HwChurn
{
    sim::BuddyCacheStats cache;
    uint64_t readBytes = 0, writeBytes = 0, dmas = 0, cycles = 0;
};

/**
 * PimMalloc.AllClassChurnMatchesGolden's HW/SW run (seed 11, 16
 * tasklets, PimMallocConfig defaults) on a buddy cache of @p entries.
 */
HwChurn
runHwChurn(unsigned entries)
{
    sim::DpuConfig dcfg;
    dcfg.buddyCache.entries = entries;
    sim::Dpu dpu(dcfg);
    PimMallocConfig cfg;
    cfg.metadata = MetadataMode::HwCache;
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    std::array<std::vector<sim::MramAddr>, 16> live, got;
    dpu.run(16, [&](sim::Tasklet &t) {
        test::churn(a, t, 11, live[t.id()], got[t.id()]);
    });
    return {dpu.buddyCache().stats(), dpu.traffic().metadataReadBytes,
            dpu.traffic().metadataWriteBytes, dpu.traffic().dmaTransfers,
            dpu.lastElapsedCycles()};
}

/** Everything SwBufferStore.PartialWindowMatchesGolden pins for one run. */
struct SwChurn
{
    uint64_t hits = 0, misses = 0, readBytes = 0, writeBytes = 0, dmas = 0,
             cycles = 0, events = 0;
};

/**
 * A 96 B SW window over a 1,023-node tree (512 KB heap, 1 KB blocks):
 * 256 B of metadata, so the window size is not a power of two, does not
 * divide the array, and the third window holds only 64 B. With
 * @p tree_churn false, 2,000 seeded gets and sets on random nodes; else
 * 1,500 seeded BuddyTree ops, a free of a random live block with
 * probability 0.35, else an alloc of up to 2 KB. The heap fills, so
 * leaves in all three windows are handed out.
 */
SwChurn
runSwWindowChurn(bool tree_churn)
{
    sim::Dpu dpu;
    const uint32_t heap = 512u << 10;
    const uint32_t nodes = BuddyTree::nodesFor(heap, 1024);
    EXPECT_EQ(nodes, 1023u);
    SwBufferStore store(dpu, 0, nodes, 96);
    EXPECT_EQ(store.bytes(), 256u);
    BuddyTree tree(store, 1u << 20, heap, 1024);
    dpu.run(1, [&](sim::Tasklet &t) {
        tree.reset(t);
        util::Rng rng(tree_churn ? 9 : 8);
        std::vector<sim::MramAddr> live;
        for (int i = 0; i < (tree_churn ? 1500 : 2000); ++i) {
            if (!tree_churn) {
                const auto node =
                    static_cast<uint32_t>(rng.uniformInt(nodes));
                if (rng.bernoulli(0.5))
                    store.set(t, node,
                              static_cast<NodeState>(rng.uniformInt(4)));
                else
                    store.get(t, node);
                continue;
            }
            if (!live.empty() && rng.bernoulli(0.35)) {
                const size_t k = rng.uniformInt(live.size());
                EXPECT_NE(tree.free(t, live[k]), 0u);
                live[k] = live.back();
                live.pop_back();
                continue;
            }
            const sim::MramAddr p = tree.alloc(
                t, static_cast<uint32_t>(rng.uniformRange(1, 2048)));
            if (p != sim::kNullAddr)
                live.push_back(p);
        }
    });
    return {store.hits(), store.misses(), dpu.traffic().metadataReadBytes,
            dpu.traffic().metadataWriteBytes, dpu.traffic().dmaTransfers,
            dpu.lastElapsedCycles(), dpu.lastSimEvents()};
}

/** Hits, misses, traffic and cycles of a store under a buddy-tree churn. */
struct TreeChurn
{
    uint64_t hits = 0, misses = 0, readBytes = 0, writeBytes = 0,
             cycles = 0;
};

/**
 * 3,000 seeded ops on a 32 MB, 4 KB-block BuddyTree at MRAM 1 MB whose
 * metadata sits behind a DataCacheStore of @p lines 64 B lines: a free
 * of a random live block with probability 0.45, else a 4-16 KB alloc.
 */
TreeChurn
runDataCacheChurn(uint32_t lines)
{
    sim::Dpu dpu;
    const uint32_t heap = 32u << 20;
    const uint32_t nodes = BuddyTree::nodesFor(heap, 4096);
    DataCacheStore store(dpu, 0, nodes, 64, lines);
    BuddyTree tree(store, 1u << 20, heap, 4096);
    dpu.run(1, [&](sim::Tasklet &t) {
        tree.reset(t);
        util::Rng rng(5);
        std::vector<sim::MramAddr> live;
        for (int i = 0; i < 3000; ++i) {
            if (!live.empty() && rng.bernoulli(0.45)) {
                const size_t k = rng.uniformInt(live.size());
                EXPECT_NE(tree.free(t, live[k]), 0u);
                live[k] = live.back();
                live.pop_back();
                continue;
            }
            const sim::MramAddr p =
                tree.alloc(t, 4096u << rng.uniformInt(3));
            if (p != sim::kNullAddr)
                live.push_back(p);
        }
    });
    return {store.hits(), store.misses(), dpu.traffic().metadataReadBytes,
            dpu.traffic().metadataWriteBytes, dpu.lastElapsedCycles()};
}

} // namespace

TEST(SwBufferStore, PartialWindowMatchesGolden)
{
    // Every production SW window is a power of two that divides its
    // array. This one is neither, and its last window is partial: the
    // window arithmetic, the resident length of the tail window and the
    // flush-and-reload charges must leave every number alone.
    struct Golden
    {
        bool treeChurn;
        SwChurn r;
    };
    const Golden golden[] = {
        {false, {694, 1306, 113760, 67456, 2078, 844044, 4078}},
        {true, {45376, 2377, 225888, 178624, 4260, 10503596, 99766}},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(g.treeChurn);
        const SwChurn r = runSwWindowChurn(g.treeChurn);
        EXPECT_EQ(r.hits, g.r.hits);
        EXPECT_EQ(r.misses, g.r.misses);
        EXPECT_EQ(r.readBytes, g.r.readBytes);
        EXPECT_EQ(r.writeBytes, g.r.writeBytes);
        EXPECT_EQ(r.dmas, g.r.dmas);
        EXPECT_EQ(r.cycles, g.r.cycles);
        EXPECT_EQ(r.events, g.r.events);
    }
}

TEST(HwCacheStore, ChurnMatchesGolden)
{
    // The buddy cache's hit/miss sequence, its LRU victims and its
    // dirty write-backs decide PIM-malloc-HW/SW's metadata traffic and
    // clocks. A change to how the cache model keeps its entries must
    // leave every number alone, at any capacity.
    struct Golden
    {
        unsigned entries;
        sim::BuddyCacheStats cache;
        uint64_t readBytes, writeBytes, dmas, cycles;
    };
    const Golden golden[] = {
        {1, {155647, 64413, 91234, 91233, 17800}, 364936, 75296, 109035,
         43868072},
        {4, {156353, 91417, 64936, 64932, 17969}, 259744, 75972, 82906,
         40428544},
        {16, {152670, 135351, 17319, 17303, 9123}, 69276, 40588, 26443,
         31759865},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(g.entries);
        const HwChurn r = runHwChurn(g.entries);
        EXPECT_EQ(r.cache.lookups, g.cache.lookups);
        EXPECT_EQ(r.cache.hits, g.cache.hits);
        EXPECT_EQ(r.cache.misses, g.cache.misses);
        EXPECT_EQ(r.cache.evictions, g.cache.evictions);
        EXPECT_EQ(r.cache.dirtyEvictions, g.cache.dirtyEvictions);
        EXPECT_EQ(r.readBytes, g.readBytes);
        EXPECT_EQ(r.writeBytes, g.writeBytes);
        EXPECT_EQ(r.dmas, g.dmas);
        EXPECT_EQ(r.cycles, g.cycles);
    }
}

TEST(DataCacheStore, TreeChurnMatchesGolden)
{
    // Section VII's general-purpose cache: which 64 B lines hit, which
    // one is evicted and whether it goes back dirty decide its traffic
    // and clocks. Pinned at one line (every miss evicts) and four.
    struct Golden
    {
        uint32_t lines;
        TreeChurn r;
    };
    const Golden golden[] = {
        {1, {69453, 50425, 3227200, 745536, 21365258}},
        {4, {96954, 22924, 1467136, 615552, 18530186}},
    };
    for (const Golden &g : golden) {
        SCOPED_TRACE(g.lines);
        const TreeChurn r = runDataCacheChurn(g.lines);
        EXPECT_EQ(r.hits, g.r.hits);
        EXPECT_EQ(r.misses, g.r.misses);
        EXPECT_EQ(r.readBytes, g.r.readBytes);
        EXPECT_EQ(r.writeBytes, g.r.writeBytes);
        EXPECT_EQ(r.cycles, g.r.cycles);
    }
}

/**
 * @file
 * Tests for the straw-man buddy_alloc_PIM_DRAM allocator: paper
 * geometry, stats, contention behaviour (Fig 8), and the heap/alloc-size
 * latency scaling of Fig 7.
 */

#include <gtest/gtest.h>

#include <array>
#include <set>
#include <vector>

#include "alloc/straw_man.hh"
#include "alloc_churn.hh"
#include "sim/dpu.hh"

using namespace pim;
using namespace pim::alloc;

namespace {

StrawManConfig
smallConfig()
{
    StrawManConfig cfg;
    cfg.heapBytes = 1u << 20;
    cfg.minBlock = 32;
    return cfg;
}

} // namespace

TEST(StrawMan, PaperMetadataFootprint)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, StrawManConfig{});
    // 32 MB heap / 32 B min -> 512 KB metadata (Section II-B).
    EXPECT_EQ(a.metadataBytes(), 512u << 10);
    EXPECT_EQ(a.tree().levels(), 21u);
    EXPECT_EQ(a.name(), "straw-man");
}

TEST(StrawMan, AllocFreeBasics)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, smallConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        const sim::MramAddr p = a.malloc(t, 100);
        ASSERT_NE(p, sim::kNullAddr);
        EXPECT_EQ(a.stats().mallocCalls, 1u);
        EXPECT_TRUE(a.free(t, p));
        EXPECT_EQ(a.stats().freeCalls, 1u);
        EXPECT_FALSE(a.free(t, p)); // double free rejected
    });
}

TEST(StrawMan, AllServicedAtBackend)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, smallConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        for (int i = 0; i < 10; ++i)
            a.malloc(t, 32);
    });
    EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Backend)], 10u);
    EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Frontend)], 0u);
}

TEST(StrawMan, DistinctAddressesAcrossTasklets)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, smallConfig());
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    std::set<sim::MramAddr> seen;
    dpu.run(16, [&](sim::Tasklet &t) {
        for (int i = 0; i < 8; ++i) {
            const sim::MramAddr p = a.malloc(t, 64);
            ASSERT_NE(p, sim::kNullAddr);
            ASSERT_TRUE(seen.insert(p).second);
        }
    });
    EXPECT_EQ(seen.size(), 128u);
    EXPECT_GT(a.contentionMutex()->contendedAcquisitions(), 0u);
}

TEST(StrawMan, ContentionInflatesLatency)
{
    auto avg_latency = [](unsigned tasklets) {
        sim::Dpu dpu;
        StrawManAllocator a(dpu, smallConfig());
        dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
        dpu.run(tasklets, [&](sim::Tasklet &t) {
            for (int i = 0; i < 16; ++i)
                a.malloc(t, 32);
        });
        return a.stats().latency.mean();
    };
    // Fig 8: multi-threaded allocation suffers from mutex busy-waiting.
    EXPECT_GT(avg_latency(16), 3.0 * avg_latency(1));
}

TEST(StrawMan, BusyWaitDominatesUnderContention)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, smallConfig());
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    dpu.run(16, [&](sim::Tasklet &t) {
        for (int i = 0; i < 16; ++i)
            a.malloc(t, 32);
    });
    const auto &bd = dpu.lastBreakdown();
    // Fig 8(b): the 16-thread breakdown is dominated by busy-waiting.
    EXPECT_GT(bd.fraction(sim::CycleKind::BusyWait), 0.4);
}

TEST(StrawMan, LatencyGrowsWithTreeDepth)
{
    // Fig 7: larger heap / same min block -> deeper tree -> slower.
    auto avg_latency = [](uint32_t heap_bytes) {
        sim::Dpu dpu;
        StrawManConfig cfg;
        cfg.heapBytes = heap_bytes;
        cfg.minBlock = 32;
        StrawManAllocator a(dpu, cfg);
        dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
        dpu.run(1, [&](sim::Tasklet &t) {
            for (int i = 0; i < 32; ++i) {
                const sim::MramAddr p = a.malloc(t, 32);
                a.free(t, p);
            }
        });
        return a.stats().latency.mean();
    };
    const double small = avg_latency(32u << 10);
    const double large = avg_latency(32u << 20);
    EXPECT_GT(large, 2.0 * small);
}

TEST(StrawMan, HeapExhaustionCountsFailures)
{
    sim::Dpu dpu;
    StrawManConfig cfg;
    cfg.heapBytes = 4096;
    cfg.minBlock = 1024;
    StrawManAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        for (int i = 0; i < 4; ++i)
            EXPECT_NE(a.malloc(t, 1024), sim::kNullAddr);
        EXPECT_EQ(a.malloc(t, 1024), sim::kNullAddr);
        EXPECT_EQ(a.stats().failures, 1u);
    });
}

TEST(StrawMan, RequestAbove2GiBFails)
{
    // Rounded up, these sizes do not fit in 32 bits; they must fail
    // like any request larger than the heap.
    sim::Dpu dpu;
    StrawManAllocator a(dpu, StrawManConfig{});
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        EXPECT_EQ(a.malloc(t, 0x80000001u), sim::kNullAddr);
        EXPECT_EQ(a.stats().failures, 1u);
        EXPECT_EQ(a.malloc(t, UINT32_MAX), sim::kNullAddr);
        EXPECT_EQ(a.stats().failures, 2u);
        EXPECT_EQ(a.tree().allocatedBytes(), 0u);
        EXPECT_NE(a.malloc(t, 64), sim::kNullAddr);
    });
}

TEST(StrawMan, FragmentationAccountsRounding)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, smallConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        a.malloc(t, 33); // rounds to 64: A/U = 64/33
        EXPECT_NEAR(a.stats().fragmentation(), 64.0 / 33.0, 1e-9);
    });
}

TEST(StrawMan, MetadataModeDirectIsFastest)
{
    auto run_with = [](MetadataMode mode) {
        sim::Dpu dpu;
        StrawManConfig cfg;
        cfg.heapBytes = 1u << 20;
        cfg.metadata = mode;
        StrawManAllocator a(dpu, cfg);
        dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
        dpu.run(1, [&](sim::Tasklet &t) {
            for (int i = 0; i < 32; ++i)
                a.malloc(t, 32);
        });
        return dpu.lastElapsedCycles();
    };
    const uint64_t direct = run_with(MetadataMode::Direct);
    const uint64_t sw = run_with(MetadataMode::SwBuffer);
    const uint64_t hw = run_with(MetadataMode::HwCache);
    EXPECT_LT(direct, hw);
    EXPECT_LT(hw, sw);
}

TEST(StrawMan, InitResetsState)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, smallConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        a.malloc(t, 64);
        a.init(t);
        EXPECT_EQ(a.stats().mallocCalls, 0u);
        // The whole heap is allocatable again after re-init.
        EXPECT_NE(a.malloc(t, 1u << 20), sim::kNullAddr);
    });
}

TEST(StrawMan, ChurnMatchesGolden)
{
    // Four tasklets of the seeded churn (alloc_churn.hh) on the paper's
    // 32 MB heap. The live-request table feeds the fragmentation
    // accounting: a change to how it stores its records must leave the
    // fragmentation fields and every address alone.
    sim::Dpu dpu;
    StrawManAllocator a(dpu, StrawManConfig{});
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    std::array<std::vector<sim::MramAddr>, 4> live, got;
    dpu.run(4, [&](sim::Tasklet &t) {
        test::churn(a, t, 3, live[t.id()], got[t.id()]);
    });
    uint64_t h = test::kFnvBasis;
    for (const auto &mine : got)
        for (const sim::MramAddr p : mine)
            test::hashAddr(h, p);
    const auto &st = a.stats();
    EXPECT_EQ(st.mallocCalls, 2857u);
    EXPECT_EQ(st.freeCalls, 2857u);
    EXPECT_EQ(st.failures, 0u);
    EXPECT_EQ(st.reservedBytes, 0u);
    EXPECT_EQ(st.requestedBytes, 0u);
    EXPECT_EQ(st.peakReservedBytes, 1166976u);
    EXPECT_EQ(st.peakRequestedBytes, 875490u);
    EXPECT_EQ(st.peakFragmentation, 1.3327942066728347);
    EXPECT_EQ(h, 0x678cdfd42bb4d1bdull) << std::hex << h;
}

/**
 * @file
 * End-to-end tests for PIM-malloc (SW, HW/SW, lazy): the three workflow
 * cases of Fig 10, service-level attribution, fragmentation accounting,
 * metadata footprint, pre-population, multi-tasklet correctness, and
 * host bookkeeping that makes no heap allocation in steady state (for
 * the straw-man too).
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <set>
#include <vector>

#include "alloc/pim_malloc.hh"
#include "alloc_churn.hh"
#include "host_allocs.hh"
#include "sim/dpu.hh"
#include "util/rng.hh"

using namespace pim;
using namespace pim::alloc;

namespace {

PimMallocConfig
testConfig(MetadataMode mode = MetadataMode::SwBuffer,
           bool pre_populate = true, unsigned tasklets = 4)
{
    PimMallocConfig cfg;
    cfg.heapBytes = 4u << 20; // smaller heap keeps tests fast
    cfg.metadata = mode;
    cfg.prePopulate = pre_populate;
    cfg.numTasklets = tasklets;
    return cfg;
}

} // namespace

TEST(PimMalloc, Names)
{
    sim::Dpu d1, d2, d3;
    EXPECT_EQ(PimMallocAllocator(d1, testConfig()).name(),
              "PIM-malloc-SW");
    EXPECT_EQ(PimMallocAllocator(d2, testConfig(MetadataMode::HwCache))
                  .name(),
              "PIM-malloc-HW/SW");
    EXPECT_EQ(PimMallocAllocator(
                  d3, testConfig(MetadataMode::SwBuffer, false))
                  .name(),
              "PIM-malloc-SW-lazy");
}

TEST(PimMalloc, BackendMetadataFootprintMatchesPaper)
{
    sim::Dpu dpu;
    PimMallocConfig cfg; // paper defaults: 32 MB heap, 4 KB spans
    PimMallocAllocator a(dpu, cfg);
    // Section VI-E: the hierarchical design shrinks buddy metadata to
    // 4 KB per DRAM bank.
    EXPECT_EQ(a.backendMetadataBytes(), 4096u);
    EXPECT_EQ(a.backend().levels(), 14u);
}

TEST(PimMalloc, Fig10CaseHit)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        // Pre-populated cache: a 128 B request is a pure frontend hit.
        const auto p = a.malloc(t, 128);
        ASSERT_NE(p, sim::kNullAddr);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Frontend)], 1u);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Backend)], 0u);
    });
}

TEST(PimMalloc, Fig10CaseMissRefillsSpan)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        // Exhaust the pre-populated 2 KB span (2 blocks), then the next
        // request must refill from the buddy.
        a.malloc(t, 2048);
        a.malloc(t, 2048);
        a.malloc(t, 2048);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Frontend)], 2u);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Backend)], 1u);
    });
}

TEST(PimMalloc, Fig10CaseBypass)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        const auto p = a.malloc(t, 8192);
        ASSERT_NE(p, sim::kNullAddr);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Bypass)], 1u);
        EXPECT_TRUE(a.free(t, p));
    });
}

TEST(PimMalloc, LazyModeStartsEmpty)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, false));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        EXPECT_EQ(a.stats().reservedBytes, 0u);
        // First small request must go to the backend (span fetch).
        a.malloc(t, 64);
        EXPECT_EQ(a.stats().serviced[size_t(ServiceLevel::Backend)], 1u);
    });
}

TEST(PimMalloc, PrePopulationReservesOneSpanPerClassPerTasklet)
{
    sim::Dpu dpu;
    const auto cfg = testConfig(MetadataMode::SwBuffer, true, 4);
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    // 4 tasklets x 8 classes x 4 KB spans.
    EXPECT_EQ(a.stats().reservedBytes, 4u * 8u * 4096u);
    EXPECT_EQ(a.backend().allocatedBytes(), 4u * 8u * 4096u);
}

TEST(PimMalloc, FreeReturnsBlocksAndEmptySpans)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, false));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        // Two spans of the 2 KB class.
        std::vector<sim::MramAddr> ps;
        for (int i = 0; i < 4; ++i)
            ps.push_back(a.malloc(t, 2048));
        EXPECT_EQ(a.stats().reservedBytes, 2u * 4096u);
        for (auto p : ps)
            EXPECT_TRUE(a.free(t, p));
        // One span lingers (last-span caching), one returned.
        EXPECT_EQ(a.stats().reservedBytes, 4096u);
        EXPECT_EQ(a.stats().requestedBytes, 0u);
    });
}

TEST(PimMalloc, FragmentationMatchesDefinition)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, false));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        a.malloc(t, 1024); // one 4 KB span fetched, 1 KB requested
        EXPECT_NEAR(a.stats().fragmentation(), 4096.0 / 1024.0, 1e-9);
        // Peak tracks the worst ratio seen.
        EXPECT_GE(a.stats().peakFragmentation, 4.0);
    });
}

TEST(PimMalloc, EagerFragmentationHigherThanLazy)
{
    auto peak_frag = [](bool pre_populate) {
        sim::Dpu dpu;
        PimMallocAllocator a(
            dpu, testConfig(MetadataMode::SwBuffer, pre_populate, 4));
        dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
        dpu.run(4, [&](sim::Tasklet &t) {
            for (int i = 0; i < 64; ++i)
                a.malloc(t, 256); // single size class, Table III row 1
        });
        return a.stats().peakFragmentation;
    };
    // Table III: pre-population inflates A/U; lazy stays near 1.
    EXPECT_GT(peak_frag(true), peak_frag(false));
}

TEST(PimMalloc, DistinctAddressesAcrossTaskletsAndSizes)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    std::set<sim::MramAddr> seen;
    dpu.run(4, [&](sim::Tasklet &t) {
        util::Rng rng(t.id() + 1);
        for (int i = 0; i < 100; ++i) {
            const uint32_t size =
                static_cast<uint32_t>(rng.uniformRange(1, 3000));
            const auto p = a.malloc(t, size);
            ASSERT_NE(p, sim::kNullAddr);
            ASSERT_TRUE(seen.insert(p).second) << "duplicate " << p;
        }
    });
    EXPECT_EQ(seen.size(), 400u);
}

TEST(PimMalloc, RandomAllocFreeChurnStaysConsistent)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::HwCache));
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    dpu.run(4, [&](sim::Tasklet &t) {
        util::Rng rng(t.id() + 77);
        std::vector<sim::MramAddr> live;
        for (int i = 0; i < 400; ++i) {
            if (live.empty() || rng.bernoulli(0.55)) {
                const uint32_t size =
                    static_cast<uint32_t>(rng.uniformRange(1, 6000));
                const auto p = a.malloc(t, size);
                if (p != sim::kNullAddr)
                    live.push_back(p);
            } else {
                const size_t idx = rng.uniformInt(live.size());
                ASSERT_TRUE(a.free(t, live[idx]));
                live.erase(live.begin() + static_cast<long>(idx));
            }
        }
        for (auto p : live)
            ASSERT_TRUE(a.free(t, p));
    });
    EXPECT_EQ(a.stats().requestedBytes, 0u);
    EXPECT_EQ(a.stats().failures, 0u);
}

TEST(PimMalloc, FreeOfUnknownPointerRejected)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        EXPECT_FALSE(a.free(t, 0x123456));
        const auto p = a.malloc(t, 64);
        EXPECT_TRUE(a.free(t, p));
        EXPECT_FALSE(a.free(t, p));
    });
}

TEST(PimMalloc, OutOfMemoryFailsGracefully)
{
    sim::Dpu dpu;
    PimMallocConfig cfg = testConfig(MetadataMode::SwBuffer, false);
    cfg.heapBytes = 64 * 1024;
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        std::vector<sim::MramAddr> ps;
        for (;;) {
            const auto p = a.malloc(t, 4096);
            if (p == sim::kNullAddr)
                break;
            ps.push_back(p);
        }
        EXPECT_EQ(ps.size(), 16u);
        EXPECT_EQ(a.stats().failures, 1u);
        // Recovery after frees.
        for (auto p : ps)
            a.free(t, p);
        EXPECT_NE(a.malloc(t, 4096), sim::kNullAddr);
    });
}

TEST(PimMalloc, BypassAbove2GiBFails)
{
    // The bypass path hands the size to the buddy tree, which must fail
    // it rather than round it past 32 bits.
    for (const MetadataMode mode :
         {MetadataMode::SwBuffer, MetadataMode::HwCache}) {
        SCOPED_TRACE(static_cast<int>(mode));
        sim::Dpu dpu;
        PimMallocAllocator a(dpu, testConfig(mode));
        dpu.run(1, [&](sim::Tasklet &t) {
            a.init(t);
            EXPECT_EQ(a.malloc(t, 0x80000001u), sim::kNullAddr);
            EXPECT_EQ(a.stats().failures, 1u);
            EXPECT_EQ(a.malloc(t, UINT32_MAX), sim::kNullAddr);
            EXPECT_EQ(a.stats().failures, 2u);
            EXPECT_NE(a.malloc(t, 4096), sim::kNullAddr);
        });
    }
}

TEST(PimMalloc, LatencyTraceRecordsEvents)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    a.stats().traceEvents = true;
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        a.malloc(t, 32);
        a.malloc(t, 32);
    });
    ASSERT_EQ(a.stats().events.size(), 2u);
    EXPECT_GT(a.stats().events[1].startCycle,
              a.stats().events[0].startCycle);
    EXPECT_GT(a.stats().events[0].latencyCycles, 0u);
    EXPECT_EQ(a.stats().events[0].size, 32u);
}

TEST(PimMalloc, HwVariantPopulatesBuddyCache)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::HwCache));
    dpu.run(1, [&](sim::Tasklet &t) {
        a.init(t);
        for (int i = 0; i < 8; ++i)
            a.malloc(t, 4096); // bypass -> backend tree traversals
    });
    EXPECT_GT(dpu.buddyCache().stats().lookups, 0u);
    EXPECT_GT(dpu.buddyCache().stats().hitRate(), 0.5);
}

TEST(PimMalloc, MissHeavyChurnMatchesGolden)
{
    // Tasklet k mallocs 300 + 40k blocks of 512 B, frees every third,
    // then mallocs 100 more. The class grows to 38..113 spans per
    // tasklet, and each of the 1,192 refills follows a miss that walks
    // every span of it. The five shortest tasklets finish first,
    // narrowing the pipeline from 16 toward 11 while 61 missed mallocs
    // are in flight (one of them inside its walk). Every simulated
    // number is pinned: a change to how the walk is charged or
    // executed must leave them all alone.
    sim::Dpu dpu;
    PimMallocConfig cfg;
    cfg.numTasklets = 16;
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    a.stats().resetCounters();

    std::array<uint64_t, 16> clocks{}, events{};
    std::array<std::vector<sim::MramAddr>, 16> addrs;
    dpu.run(16, [&](sim::Tasklet &t) {
        auto &mine = addrs[t.id()];
        const unsigned n = 300 + 40 * t.id();
        for (unsigned i = 0; i < n; ++i)
            mine.push_back(a.malloc(t, 512));
        for (unsigned i = 2; i < n; i += 3)
            ASSERT_TRUE(a.free(t, mine[i]));
        for (unsigned i = 0; i < 100; ++i)
            mine.push_back(a.malloc(t, 512));
        clocks[t.id()] = t.clock();
        events[t.id()] = t.simEvents();
    });

    uint64_t h = 1469598103934665603ull; // FNV-1a over the addresses
    for (const auto &mine : addrs) {
        for (const sim::MramAddr p : mine) {
            ASSERT_NE(p, sim::kNullAddr);
            for (int i = 0; i < 4; ++i) {
                h ^= (p >> (8 * i)) & 0xff;
                h *= 1099511628211ull;
            }
        }
    }
    EXPECT_EQ(h, 0x5786289649f24afdull) << std::hex << h;

    EXPECT_EQ(clocks, (std::array<uint64_t, 16>{
                          11566180, 7681888, 9824698, 14415042, 14211312,
                          15417976, 14860268, 18162222, 18334560, 17270010,
                          16980756, 18291982, 18050846, 18405796, 18435452,
                          18525154}));
    EXPECT_EQ(events, (std::array<uint64_t, 16>{
                          5831, 6587, 7476, 8455, 9430, 10391, 11287, 12318,
                          13262, 14262, 15474, 16553, 17710, 18800, 19948,
                          21214}));
    const auto &bd = dpu.lastBreakdown();
    EXPECT_EQ(bd.of(sim::CycleKind::Run), 21394466u);
    EXPECT_EQ(bd.of(sim::CycleKind::BusyWait), 224500540u);
    EXPECT_EQ(bd.of(sim::CycleKind::IdleMemory), 4539136u);
    EXPECT_EQ(bd.of(sim::CycleKind::IdleEtc), 45968322u);
    const auto &st = a.stats();
    EXPECT_EQ(st.serviced[size_t(ServiceLevel::Frontend)], 10008u);
    EXPECT_EQ(st.serviced[size_t(ServiceLevel::Backend)], 1192u);
    EXPECT_EQ(st.serviced[size_t(ServiceLevel::Bypass)], 0u);
    EXPECT_EQ(st.cyclesByLevel[size_t(ServiceLevel::Frontend)], 4649128u);
    EXPECT_EQ(st.cyclesByLevel[size_t(ServiceLevel::Backend)], 244897974u);
    EXPECT_EQ(st.cyclesByLevel[size_t(ServiceLevel::Bypass)], 0u);
}

namespace {

/** Everything PimMalloc.AllClassChurnMatchesGolden pins, per variant. */
struct AllClassChurn
{
    std::array<uint64_t, 16> clocks{}, events{};
    uint64_t mallocs = 0, frees = 0, failures = 0;
    std::array<uint64_t, 3> serviced{}, cyclesByLevel{};
    uint64_t reserved = 0, requested = 0, peakReserved = 0,
             peakRequested = 0;
    double peakFragmentation = 0;
    uint64_t threadCacheMetadata = 0, peakSpans = 0;
    uint64_t addrHash = 0;
};

AllClassChurn
runAllClassChurn(MetadataMode mode)
{
    sim::Dpu dpu;
    PimMallocConfig cfg;
    cfg.metadata = mode;
    cfg.numTasklets = 16;
    PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });

    AllClassChurn r;
    std::array<std::vector<sim::MramAddr>, 16> live, got;
    dpu.run(16, [&](sim::Tasklet &t) {
        test::churn(a, t, 11, live[t.id()], got[t.id()]);
        r.clocks[t.id()] = t.clock();
        r.events[t.id()] = t.simEvents();
    });
    const auto &st = a.stats();
    r.mallocs = st.mallocCalls;
    r.frees = st.freeCalls;
    r.failures = st.failures;
    for (size_t l = 0; l < 3; ++l) {
        r.serviced[l] = st.serviced[l];
        r.cyclesByLevel[l] = st.cyclesByLevel[l];
    }
    r.reserved = st.reservedBytes;
    r.requested = st.requestedBytes;
    r.peakReserved = st.peakReservedBytes;
    r.peakRequested = st.peakRequestedBytes;
    r.peakFragmentation = st.peakFragmentation;
    r.threadCacheMetadata = a.threadCacheMetadataBytes();
    for (unsigned i = 0; i < cfg.numTasklets; ++i)
        r.peakSpans += a.cache(i).peakSpans();
    r.addrHash = test::kFnvBasis;
    for (const auto &mine : got)
        for (const sim::MramAddr p : mine)
            test::hashAddr(r.addrHash, p);
    return r;
}

} // namespace

TEST(PimMalloc, AllClassChurnMatchesGolden)
{
    // 16 tasklets churn over all eight classes and the bypass path
    // (alloc_churn.hh). Spans fill, rotate, drain and go back to the
    // buddy, so which span serves each request, and with it every
    // address and clock, depends on the order each class keeps its
    // spans in. A change to how the thread caches or the live-block
    // table store their records must leave every number alone.
    const AllClassChurn golden[2] = {
        // PIM-malloc-SW
        {{51432206, 50710402, 49367494, 49762200, 48133666, 51764182,
          42443744, 52009646, 46499050, 52187874, 50241942, 49196424,
          51387410, 51523474, 52228308, 49588854},
         {24598, 21405, 22941, 23972, 21782, 23349, 23205, 22127, 19826,
          28994, 26253, 23198, 24540, 23459, 27423, 23192},
         11441, 11441, 0,
         {9593, 517, 1331},
         {5188502, 130424494, 297544562},
         524288, 0, 5013504, 3509386,
         1.4250971537471226,
         6144, 551,
         0x7ce2400ab1d24165ull},
        // PIM-malloc-HW/SW
        {{31146568, 27719322, 31291743, 31474506, 30374028, 30392606,
          30600102, 30249623, 30298627, 31748863, 29643084, 30975010,
          31738989, 31013251, 31759865, 30199853},
         {35496, 33081, 35458, 36089, 31853, 35392, 35745, 32291, 31307,
          43222, 38770, 38342, 38104, 33608, 42981, 38037},
         11441, 11441, 0,
         {9593, 517, 1331},
         {5199790, 71334043, 197634101},
         524288, 0, 5050368, 3507416,
         1.4375756967522531,
         6144, 551,
         0x6ac629efaa16cff1ull},
    };
    for (const MetadataMode mode :
         {MetadataMode::SwBuffer, MetadataMode::HwCache}) {
        SCOPED_TRACE(mode == MetadataMode::SwBuffer ? "SW" : "HW/SW");
        const AllClassChurn r = runAllClassChurn(mode);
        const AllClassChurn &g = golden[mode == MetadataMode::HwCache];
        EXPECT_EQ(r.clocks, g.clocks);
        EXPECT_EQ(r.events, g.events);
        EXPECT_EQ(r.mallocs, g.mallocs);
        EXPECT_EQ(r.frees, g.frees);
        EXPECT_EQ(r.failures, g.failures);
        EXPECT_EQ(r.serviced, g.serviced);
        EXPECT_EQ(r.cyclesByLevel, g.cyclesByLevel);
        EXPECT_EQ(r.reserved, g.reserved);
        EXPECT_EQ(r.requested, g.requested);
        EXPECT_EQ(r.peakReserved, g.peakReserved);
        EXPECT_EQ(r.peakRequested, g.peakRequested);
        EXPECT_EQ(r.peakFragmentation, g.peakFragmentation);
        EXPECT_EQ(r.threadCacheMetadata, g.threadCacheMetadata);
        EXPECT_EQ(r.peakSpans, g.peakSpans);
        EXPECT_EQ(r.addrHash, g.addrHash) << std::hex << r.addrHash;
    }
}

namespace {

/**
 * Run @p tasklets tasklets of the seeded churn on @p a twice, resetting
 * the counters in between, and expect the second pass to make no global
 * operator new call. The body and the test's own vectors are built in
 * the first pass, so only the allocator could allocate in the second.
 */
void
expectSecondChurnAllocatesNothing(sim::Dpu &dpu, Allocator &a,
                                  unsigned tasklets)
{
    std::vector<std::vector<sim::MramAddr>> live(tasklets), got(tasklets);
    const std::function<void(sim::Tasklet &)> body = [&](sim::Tasklet &t) {
        got[t.id()].clear();
        test::churn(a, t, 5, live[t.id()], got[t.id()]);
    };
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    dpu.run(tasklets, body);
    const uint64_t first_mallocs = a.stats().mallocCalls;
    a.stats().resetCounters();
    const uint64_t allocs =
        test::countAllocs([&] { dpu.run(tasklets, body); });
    EXPECT_EQ(a.stats().mallocCalls, first_mallocs);
    EXPECT_EQ(a.stats().failures, 0u);
    EXPECT_EQ(allocs, 0u) << "in a pass of " << first_mallocs
                          << " mallocs and as many frees";
}

} // namespace

TEST(HostAllocation, PimMallocChurnAllocatesNothing)
{
    // Once the live-block table and the thread caches' span slabs have
    // grown to the churn's size, malloc and free make no host heap
    // allocation.
    sim::Dpu dpu;
    PimMallocConfig cfg;
    cfg.numTasklets = 16;
    PimMallocAllocator a(dpu, cfg);
    expectSecondChurnAllocatesNothing(dpu, a, 16);
}

TEST(HostAllocation, StrawManChurnAllocatesNothing)
{
    sim::Dpu dpu;
    StrawManAllocator a(dpu, StrawManConfig{});
    expectSecondChurnAllocatesNothing(dpu, a, 4);
}

TEST(PimMallocDeath, MallocBeforeInitPanics)
{
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig());
    EXPECT_DEATH(dpu.run(1, [&](sim::Tasklet &t) { a.malloc(t, 32); }),
                 "before initAllocator");
}

TEST(PimMallocDeathTest, TaskletWithoutThreadCacheIsFatal)
{
    // Thread caches exist for tasklets 0..numTasklets-1 only: tasklet 4
    // of an allocator built for 4 has none of its own.
    sim::Dpu dpu;
    PimMallocAllocator a(dpu, testConfig(MetadataMode::SwBuffer, true, 4));
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    EXPECT_DEATH(dpu.run(8,
                         [&](sim::Tasklet &t) {
                             const auto p = a.malloc(t, 64);
                             a.free(t, p);
                         }),
                 "tasklet 4 has no thread cache: the allocator was built "
                 "for 4 tasklets");
}

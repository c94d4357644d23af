/**
 * @file
 * Tests for the microbenchmark driver: result plumbing, determinism,
 * trace recording, free-each-alloc mode, and the spin-oracle
 * differential.
 */

#include <gtest/gtest.h>

#include <string>

#include "telemetry/registry.hh"
#include "workloads/microbench.hh"

using namespace pim;
using namespace pim::workloads;

namespace {

MicrobenchConfig
quick(core::AllocatorKind kind, unsigned tasklets = 4, uint32_t size = 64)
{
    MicrobenchConfig cfg;
    cfg.allocator = kind;
    cfg.tasklets = tasklets;
    cfg.allocsPerTasklet = 32;
    cfg.allocSize = size;
    cfg.overrides.heapBytes = 4u << 20;
    return cfg;
}

} // namespace

TEST(Microbench, CountsAndLatency)
{
    const auto r = runMicrobench(quick(core::AllocatorKind::PimMallocSw));
    EXPECT_EQ(r.allocStats.mallocCalls, 4u * 32u);
    EXPECT_GT(r.avgLatencyUs, 0.0);
    EXPECT_GT(r.elapsedCycles, 0u);
    EXPECT_EQ(r.allocStats.failures, 0u);
    EXPECT_GT(r.metadataBytes, 0u);
}

TEST(Microbench, Deterministic)
{
    const auto cfg = quick(core::AllocatorKind::StrawMan, 8, 32);
    const auto a = runMicrobench(cfg);
    const auto b = runMicrobench(cfg);
    EXPECT_EQ(a.elapsedCycles, b.elapsedCycles);
    EXPECT_DOUBLE_EQ(a.avgLatencyUs, b.avgLatencyUs);
    EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
}

TEST(Microbench, FreeEachAllocKeepsHeapEmpty)
{
    auto cfg = quick(core::AllocatorKind::PimMallocSwLazy);
    cfg.freeEachAlloc = true;
    const auto r = runMicrobench(cfg);
    EXPECT_EQ(r.allocStats.freeCalls, r.allocStats.mallocCalls);
    EXPECT_EQ(r.allocStats.requestedBytes, 0u);
}

TEST(Microbench, TraceEventsHaveMonotoneStartsPerTasklet)
{
    auto cfg = quick(core::AllocatorKind::PimMallocSw, 2);
    cfg.traceEvents = true;
    const auto r = runMicrobench(cfg);
    ASSERT_EQ(r.allocStats.events.size(), 64u);
    uint64_t last[2] = {0, 0};
    for (const auto &e : r.allocStats.events) {
        ASSERT_LT(e.taskletId, 2u);
        EXPECT_GE(e.startCycle, last[e.taskletId]);
        last[e.taskletId] = e.startCycle;
    }
}

TEST(Microbench, HwVariantReportsCacheStats)
{
    const auto r = runMicrobench(
        quick(core::AllocatorKind::PimMallocHwSw, 4, 4096));
    EXPECT_GT(r.cacheStats.lookups, 0u);
    EXPECT_GT(r.cacheStats.hitRate(), 0.0);
}

TEST(Microbench, BuddyCacheSizeConfigurable)
{
    auto cfg = quick(core::AllocatorKind::PimMallocHwSw, 4, 4096);
    cfg.dpuCfg.buddyCache.entries = 4;
    const auto small = runMicrobench(cfg);
    cfg.dpuCfg.buddyCache.entries = 64;
    const auto large = runMicrobench(cfg);
    // Fig 16: a larger buddy cache raises the hit rate.
    EXPECT_GE(large.cacheStats.hitRate(), small.cacheStats.hitRate());
}

TEST(Microbench, MoreTaskletsMoreContention)
{
    const auto t1 = runMicrobench(quick(core::AllocatorKind::StrawMan, 1));
    const auto t16 =
        runMicrobench(quick(core::AllocatorKind::StrawMan, 16));
    EXPECT_GT(t16.avgLatencyUs, t1.avgLatencyUs);
    EXPECT_GT(t16.breakdown.of(sim::CycleKind::BusyWait),
              t1.breakdown.of(sim::CycleKind::BusyWait));
}

/**
 * Figure-level differential: the Fig 7/8/15 shapes (16 tasklets, small
 * and page-sized requests, blocks kept live or freed at once) on the
 * production parked-waiter mutex must print exactly what the spin
 * oracle prints.
 */
TEST(Microbench, ParkedMutexMatchesSpinOracle)
{
    const sim::SimMutex::Mode prod = sim::SimMutex::defaultMode();
    uint64_t elided = 0;
    for (const auto kind :
         {core::AllocatorKind::StrawMan, core::AllocatorKind::PimMallocSw,
          core::AllocatorKind::PimMallocHwSw}) {
        for (const uint32_t size : {32u, 4096u}) {
            for (const bool free_each : {false, true}) {
                SCOPED_TRACE(std::string(core::allocatorKindName(kind))
                             + " " + std::to_string(size) + " B"
                             + (free_each ? " free-each" : " keep-live"));
                MicrobenchConfig cfg;
                cfg.allocator = kind;
                cfg.tasklets = 16;
                cfg.allocSize = size;
                cfg.freeEachAlloc = free_each;
                telemetry::Registry spin_met;
                cfg.metrics = &spin_met;
                sim::SimMutex::setDefaultMode(sim::SimMutex::Mode::Spin);
                const auto spin = runMicrobench(cfg);
                sim::SimMutex::setDefaultMode(prod);
                telemetry::Registry queue_met;
                cfg.metrics = &queue_met;
                const auto queue = runMicrobench(cfg);

                EXPECT_EQ(queue.elapsedCycles, spin.elapsedCycles);
                for (size_t k = 0; k < sim::kNumCycleKinds; ++k)
                    EXPECT_EQ(queue.breakdown.cycles[k],
                              spin.breakdown.cycles[k]);
                for (size_t l = 0; l < 3; ++l) {
                    EXPECT_EQ(queue.allocStats.serviced[l],
                              spin.allocStats.serviced[l]);
                    EXPECT_EQ(queue.allocStats.cyclesByLevel[l],
                              spin.allocStats.cyclesByLevel[l]);
                }
                EXPECT_EQ(queue.allocStats.latency.samples(),
                          spin.allocStats.latency.samples());
                EXPECT_EQ(queue.traffic.dataReadBytes,
                          spin.traffic.dataReadBytes);
                EXPECT_EQ(queue.traffic.dataWriteBytes,
                          spin.traffic.dataWriteBytes);
                EXPECT_EQ(queue.traffic.metadataReadBytes,
                          spin.traffic.metadataReadBytes);
                EXPECT_EQ(queue.traffic.metadataWriteBytes,
                          spin.traffic.metadataWriteBytes);
                EXPECT_EQ(queue.traffic.dmaTransfers,
                          spin.traffic.dmaTransfers);
                EXPECT_EQ(queue.cacheStats.lookups, spin.cacheStats.lookups);
                EXPECT_EQ(queue.cacheStats.hits, spin.cacheStats.hits);
                EXPECT_EQ(queue.cacheStats.misses, spin.cacheStats.misses);
                EXPECT_EQ(queue.cacheStats.evictions,
                          spin.cacheStats.evictions);
                EXPECT_EQ(queue.cacheStats.dirtyEvictions,
                          spin.cacheStats.dirtyEvictions);
                EXPECT_EQ(queue.mutexStats.acquisitions,
                          spin.mutexStats.acquisitions);
                EXPECT_EQ(queue.mutexStats.contended,
                          spin.mutexStats.contended);
                EXPECT_EQ(spin.mutexStats.elidedSpinEvents, 0u);
                // Every elided re-check stands for exactly one spin
                // charge, at whatever pipeline width it fell.
                EXPECT_EQ(queue_met.counter("queue.sim_events").value()
                              + queue.mutexStats.elidedSpinEvents,
                          spin_met.counter("queue.sim_events").value());
                elided += queue.mutexStats.elidedSpinEvents;
            }
        }
    }
    // The sweep must actually park waiters, or it proves nothing.
    EXPECT_GT(elided, 0u);
}

/**
 * @file
 * DPU-level tests: configuration defaults, launch mechanics, repeated
 * launches, time conversion, and the per-thread launch context (no
 * allocation in steady state, reuse equal to a fresh context, nested
 * launches, one-tasklet launches equal to the fiber oracle).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <thread>
#include <vector>

#include "host_allocs.hh"
#include "resident_pages.hh"
#include "sim/dpu.hh"
#include "sim/mutex.hh"
#include "sim/scheduler.hh"

using namespace pim::sim;

TEST(Dpu, UpmemDefaults)
{
    Dpu dpu;
    EXPECT_EQ(dpu.config().mramBytes, 64u << 20);
    EXPECT_EQ(dpu.config().wramBytes, 64u << 10);
    EXPECT_EQ(dpu.config().maxTasklets, 24u);
    EXPECT_DOUBLE_EQ(dpu.config().clockGhz, 0.35);
    EXPECT_EQ(dpu.mram().size(), 64u << 20);
}

TEST(Dpu, CycleConversion)
{
    DpuConfig cfg;
    cfg.clockGhz = 0.35;
    // 350 cycles at 350 MHz = 1 us.
    EXPECT_NEAR(cfg.cyclesToMicros(350), 1.0, 1e-9);
    EXPECT_NEAR(cfg.cyclesToSeconds(350'000'000), 1.0, 1e-9);
}

TEST(Dpu, RunReturnsMakespan)
{
    Dpu dpu;
    const uint64_t c = dpu.run(2, [](Tasklet &t) {
        t.execute(t.id() == 0 ? 1 : 7);
    });
    EXPECT_EQ(c, dpu.lastElapsedCycles());
    EXPECT_EQ(c, 7u * 11u);
}

TEST(Dpu, SequentialLaunchesIndependentClocks)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) { t.execute(100); });
    const uint64_t first = dpu.lastElapsedCycles();
    dpu.run(1, [](Tasklet &t) { t.execute(1); });
    EXPECT_LT(dpu.lastElapsedCycles(), first);
}

TEST(Dpu, StatePersistsAcrossLaunches)
{
    Dpu dpu;
    dpu.run(1, [&](Tasklet &t) {
        t.dpu().mram().write<uint32_t>(1000, 7);
        t.execute(1);
    });
    uint32_t seen = 0;
    dpu.run(1, [&](Tasklet &t) {
        seen = t.dpu().mram().read<uint32_t>(1000);
        t.execute(1);
    });
    EXPECT_EQ(seen, 7u);
}

TEST(Dpu, ReclaimMemoryKeepsResultsAndZeroesTheBank)
{
    DpuConfig cfg;
    cfg.mramBytes = 1u << 20;
    Dpu dpu(cfg);
    dpu.wramReserve(4096);
    dpu.run(2, [](Tasklet &t) {
        t.mramWrite<uint64_t>(t.id() * 4096 + 8, ~uint64_t{0});
        t.dmaRead(0, 256);
        t.execute(10);
    });
    const uint64_t elapsed = dpu.lastElapsedCycles();
    const uint64_t events = dpu.lastSimEvents();
    const TrafficStats traffic = dpu.traffic();
    ASSERT_GT(elapsed, 0u);
    ASSERT_GT(traffic.dmaTransfers, 0u);

    dpu.reclaimMemory();
    EXPECT_EQ(dpu.lastElapsedCycles(), elapsed);
    EXPECT_EQ(dpu.lastSimEvents(), events);
    EXPECT_EQ(dpu.traffic().dataReadBytes, traffic.dataReadBytes);
    EXPECT_EQ(dpu.traffic().dataWriteBytes, traffic.dataWriteBytes);
    EXPECT_EQ(dpu.traffic().dmaTransfers, traffic.dmaTransfers);
    EXPECT_EQ(dpu.wramUsed(), 4096u);
    EXPECT_EQ(dpu.mram().size(), cfg.mramBytes);
    const uint8_t *bank = dpu.mram().raw();
    EXPECT_TRUE(std::all_of(bank, bank + cfg.mramBytes,
                            [](uint8_t b) { return b == 0; }));
}

TEST(Dpu, FreshBankHasNoResidentPage)
{
    DpuConfig cfg;
    cfg.mramBytes = 64u << 10;
    {
        Dpu first(cfg);
        first.mram().fill(0, cfg.mramBytes, 0xff);
        EXPECT_GT(pim::test::residentPagesInside(first.mram()), 0u);
    }
    // A new bank costs address space only, even right after the host
    // freed a block of its size.
    Dpu second(cfg);
    EXPECT_EQ(pim::test::residentPagesInside(second.mram()), 0u);
}

TEST(Dpu, MaxTaskletsLaunchWorks)
{
    Dpu dpu;
    unsigned count = 0;
    dpu.run(24, [&](Tasklet &t) {
        ++count;
        t.execute(1);
    });
    EXPECT_EQ(count, 24u);
}

TEST(Dpu, CustomConfigPropagates)
{
    DpuConfig cfg;
    cfg.mramBytes = 1u << 20;
    cfg.pipelineIssueInterval = 5;
    Dpu dpu(cfg);
    EXPECT_EQ(dpu.mram().size(), 1u << 20);
    dpu.run(1, [](Tasklet &t) { t.execute(10); });
    EXPECT_EQ(dpu.lastElapsedCycles(), 50u);
}

TEST(DpuDeath, EmptyLaunchPanics)
{
    Dpu dpu;
    EXPECT_DEATH(dpu.run(0, [](Tasklet &t) { t.execute(1); }),
                 "at least one tasklet");
}

namespace {

/** What one launch leaves behind, per tasklet and on the DPU. */
struct LaunchRecord
{
    std::vector<uint64_t> clocks;
    std::vector<uint64_t> events;
    std::vector<CycleBreakdown> breakdowns;
    uint64_t elapsed = 0;
    uint64_t simEvents = 0;
    CycleBreakdown breakdown;
    uint64_t acquisitions = 0;
    uint64_t contended = 0;
    uint64_t parked = 0;
    uint64_t woken = 0;
    uint64_t elided = 0;
    uint64_t counter = 0;
};

void
expectSameLaunch(const LaunchRecord &a, const LaunchRecord &b)
{
    EXPECT_EQ(a.clocks, b.clocks);
    EXPECT_EQ(a.events, b.events);
    ASSERT_EQ(a.breakdowns.size(), b.breakdowns.size());
    for (size_t i = 0; i < a.breakdowns.size(); ++i)
        EXPECT_EQ(a.breakdowns[i].cycles, b.breakdowns[i].cycles)
            << "tasklet " << i;
    EXPECT_EQ(a.elapsed, b.elapsed);
    EXPECT_EQ(a.simEvents, b.simEvents);
    EXPECT_EQ(a.breakdown.cycles, b.breakdown.cycles);
    EXPECT_EQ(a.acquisitions, b.acquisitions);
    EXPECT_EQ(a.contended, b.contended);
    EXPECT_EQ(a.parked, b.parked);
    EXPECT_EQ(a.woken, b.woken);
    EXPECT_EQ(a.elided, b.elided);
    EXPECT_EQ(a.counter, b.counter);
}

constexpr MramAddr kCounterAddr = 4096;

/**
 * Launch @p n tasklets that contend on one mutex around an MRAM
 * read-modify-write of a shared counter, so waiters park and wake.
 */
LaunchRecord
contendedLaunch(Dpu &dpu, unsigned n)
{
    SimMutex mutex;
    LaunchRecord r;
    r.clocks.resize(n);
    r.events.resize(n);
    r.breakdowns.resize(n);
    dpu.mram().write<uint64_t>(kCounterAddr, 0);
    dpu.run(n, [&](Tasklet &t) {
        for (unsigned i = 0; i < 3 + t.id() % 4; ++i) {
            t.execute(2 + t.id() % 5);
            mutex.lock(t);
            const auto v = t.mramRead<uint64_t>(kCounterAddr);
            t.execute(8);
            t.mramWrite<uint64_t>(kCounterAddr, v + 1);
            mutex.unlock(t);
        }
        r.clocks[t.id()] = t.clock();
        r.events[t.id()] = t.simEvents();
        r.breakdowns[t.id()] = t.breakdown();
    });
    r.elapsed = dpu.lastElapsedCycles();
    r.simEvents = dpu.lastSimEvents();
    r.breakdown = dpu.lastBreakdown();
    r.acquisitions = mutex.acquisitions();
    r.contended = mutex.contendedAcquisitions();
    r.parked = mutex.parkedCount();
    r.woken = mutex.wokenCount();
    r.elided = mutex.elidedSpinEvents();
    r.counter = dpu.mram().read<uint64_t>(kCounterAddr);
    return r;
}

} // namespace

TEST(DpuLaunchContext, SteadyStateLaunchAllocatesNothing)
{
    Dpu dpu;
    const std::function<void(Tasklet &)> body = [](Tasklet &t) {
        t.execute(1);
    };
    for (const unsigned tasklets : {1u, 16u}) {
        dpu.run(tasklets, body); // warm-up: grows this thread's context
        const uint64_t allocs = pim::test::countAllocs([&] {
            for (int i = 0; i < 100; ++i)
                dpu.run(tasklets, body);
        });
        EXPECT_EQ(allocs, 0u) << "100 launches of " << tasklets
                              << " tasklet(s)";
    }
}

TEST(DpuLaunchContext, ReuseMatchesFreshContext)
{
    // The same launch sequence twice: once reusing this thread's
    // context, whose pooled tasklets carry the previous launch's
    // clocks, parks and breakdowns, and once with every launch on a
    // new thread, whose context starts empty.
    const std::vector<unsigned> sizes{16, 1, 24, 4, 16};
    Dpu reused_dpu;
    Dpu fresh_dpu;
    for (const unsigned n : sizes) {
        const LaunchRecord reused = contendedLaunch(reused_dpu, n);
        LaunchRecord fresh;
        std::thread([&] { fresh = contendedLaunch(fresh_dpu, n); }).join();
        SCOPED_TRACE(testing::Message() << n << " tasklets");
        if (n > 1) {
            EXPECT_GT(reused.parked, 0u);
        }
        expectSameLaunch(reused, fresh);
    }
}

TEST(DpuLaunchContext, NestedLaunchMatchesSequentialLaunches)
{
    // Tasklet 2 of an 8-tasklet launch runs another DPU's 4-tasklet
    // launch while its siblings are parked or suspended mid-body. The
    // nested launch takes its own context, so both launches come out
    // exactly as when run one after the other.
    Dpu outer_dpu;
    Dpu inner_dpu;
    LaunchRecord inner;
    const LaunchRecord outer = [&] {
        SimMutex mutex;
        LaunchRecord r;
        r.clocks.resize(8);
        outer_dpu.run(8, [&](Tasklet &t) {
            for (int i = 0; i < 3; ++i) {
                mutex.lock(t);
                t.execute(4 + t.id());
                if (t.id() == 2 && i == 1)
                    inner = contendedLaunch(inner_dpu, 4);
                mutex.unlock(t);
            }
            r.clocks[t.id()] = t.clock();
        });
        r.elapsed = outer_dpu.lastElapsedCycles();
        r.simEvents = outer_dpu.lastSimEvents();
        r.breakdown = outer_dpu.lastBreakdown();
        r.parked = mutex.parkedCount();
        return r;
    }();

    Dpu seq_outer_dpu;
    Dpu seq_inner_dpu;
    SimMutex mutex;
    LaunchRecord seq_outer;
    seq_outer.clocks.resize(8);
    seq_outer_dpu.run(8, [&](Tasklet &t) {
        for (int i = 0; i < 3; ++i) {
            mutex.lock(t);
            t.execute(4 + t.id());
            mutex.unlock(t);
        }
        seq_outer.clocks[t.id()] = t.clock();
    });
    seq_outer.elapsed = seq_outer_dpu.lastElapsedCycles();
    seq_outer.simEvents = seq_outer_dpu.lastSimEvents();
    seq_outer.breakdown = seq_outer_dpu.lastBreakdown();
    seq_outer.parked = mutex.parkedCount();
    const LaunchRecord seq_inner = contendedLaunch(seq_inner_dpu, 4);

    EXPECT_GT(outer.parked, 0u);
    EXPECT_GT(inner.parked, 0u);
    {
        SCOPED_TRACE("outer launch");
        expectSameLaunch(outer, seq_outer);
    }
    {
        SCOPED_TRACE("nested launch");
        expectSameLaunch(inner, seq_inner);
    }
}

namespace {

/** What a one-tasklet launch leaves behind on its DPU. */
struct LoneRecord
{
    uint64_t clock = 0;
    uint64_t events = 0;
    CycleBreakdown breakdown;
    uint64_t elapsed = 0;
    TrafficStats traffic;
    uint64_t acquisitions = 0;
    uint64_t parked = 0;
    LaunchRecord nested;
};

/**
 * Run one tasklet on @p dpu that charges every way a tasklet can
 * (instructions, raw stalls, DMA both ways), takes and releases an
 * uncontended queue-mode lock, and launches 16 contending tasklets on
 * @p nested_dpu from inside its body. @p oracle runs it on a
 * NaiveReference scheduler with one spawn instead of Dpu::run.
 */
LoneRecord
loneLaunch(Dpu &dpu, Dpu &nested_dpu, bool oracle)
{
    SimMutex mutex(SimMutex::Mode::Queue);
    LoneRecord r;
    dpu.mram().write<uint64_t>(kCounterAddr, 5);
    const std::function<void(Tasklet &)> body = [&](Tasklet &t) {
        t.execute(7);
        t.stall(13, CycleKind::IdleEtc);
        const auto v = t.mramRead<uint64_t>(kCounterAddr);
        mutex.lock(t);
        t.mramWrite<uint64_t>(kCounterAddr, v + 1);
        t.execute(3, CycleKind::BusyWait);
        mutex.unlock(t);
        r.nested = contendedLaunch(nested_dpu, 16);
        t.dmaRead(kCounterAddr + 64, 256, TrafficClass::Metadata);
        t.dmaWrite(kCounterAddr + 512, 40, TrafficClass::Metadata);
        t.execute(1);
        r.clock = t.clock();
        r.events = t.simEvents();
        r.breakdown = t.breakdown();
    };
    if (oracle) {
        TaskletScheduler sched(dpu,
                               TaskletScheduler::Policy::NaiveReference);
        sched.spawn(body);
        sched.runToCompletion();
        r.elapsed = sched.elapsedCycles();
    } else {
        r.elapsed = dpu.run(1, body);
        EXPECT_EQ(dpu.lastSimEvents(), r.events);
        EXPECT_EQ(dpu.lastBreakdown().cycles, r.breakdown.cycles);
    }
    r.traffic = dpu.traffic();
    r.acquisitions = mutex.acquisitions();
    r.parked = mutex.parkedCount();
    EXPECT_EQ(dpu.mram().read<uint64_t>(kCounterAddr), 6u);
    return r;
}

} // namespace

TEST(DpuLaunchContext, LoneTaskletMatchesFiberOracle)
{
    Dpu dpu;
    Dpu nested_dpu;
    Dpu oracle_dpu;
    Dpu oracle_nested_dpu;
    const LoneRecord lone = loneLaunch(dpu, nested_dpu, false);
    const LoneRecord ref = loneLaunch(oracle_dpu, oracle_nested_dpu, true);

    EXPECT_EQ(lone.clock, ref.clock);
    EXPECT_EQ(lone.events, ref.events);
    EXPECT_EQ(lone.breakdown.cycles, ref.breakdown.cycles);
    EXPECT_EQ(lone.elapsed, ref.elapsed);
    EXPECT_EQ(lone.elapsed, lone.clock);
    EXPECT_EQ(lone.traffic.dataReadBytes, ref.traffic.dataReadBytes);
    EXPECT_EQ(lone.traffic.dataWriteBytes, ref.traffic.dataWriteBytes);
    EXPECT_EQ(lone.traffic.metadataReadBytes,
              ref.traffic.metadataReadBytes);
    EXPECT_EQ(lone.traffic.metadataWriteBytes,
              ref.traffic.metadataWriteBytes);
    EXPECT_EQ(lone.traffic.dmaTransfers, ref.traffic.dmaTransfers);
    EXPECT_EQ(lone.acquisitions, 1u);
    EXPECT_EQ(lone.parked, 0u);
    EXPECT_EQ(lone.acquisitions, ref.acquisitions);
    EXPECT_EQ(lone.parked, ref.parked);
    // Every kind of charge happened, and the nested launch contended.
    for (const CycleKind kind : {CycleKind::Run, CycleKind::BusyWait,
                                 CycleKind::IdleMemory, CycleKind::IdleEtc})
        EXPECT_GT(lone.breakdown.of(kind), 0u) << cycleKindName(kind);
    EXPECT_GT(lone.nested.parked, 0u);
    SCOPED_TRACE("nested launch");
    expectSameLaunch(lone.nested, ref.nested);
}

TEST(DpuLaunchContextDeath, LoneTaskletOnHeldLockIsDeadlockFatal)
{
    // An earlier launch left the lock held. A lone tasklet that blocks
    // on it has nobody to wake it, with or without a fiber.
    Dpu dpu;
    SimMutex mutex(SimMutex::Mode::Queue);
    dpu.run(1, [&](Tasklet &t) { mutex.lock(t); });
    ASSERT_TRUE(mutex.held());
    EXPECT_DEATH(dpu.run(1, [&](Tasklet &t) {
        mutex.lock(t);
        mutex.unlock(t);
    }), "deadlock");
}

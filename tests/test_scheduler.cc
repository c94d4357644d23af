/**
 * @file
 * Tests for the deterministic tasklet scheduler and the pipeline cost
 * model: min-clock scheduling, issue-interval scaling, cycle breakdown
 * accounting, and batched charges (Tasklet::executeRepeated).
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>
#include <vector>

#include "sim/dpu.hh"
#include "sim/scheduler.hh"

using namespace pim::sim;

TEST(Scheduler, SingleTaskletCost)
{
    Dpu dpu;
    // One active tasklet: each instruction takes the 11-cycle issue
    // interval.
    dpu.run(1, [](Tasklet &t) { t.execute(10); });
    EXPECT_EQ(dpu.lastElapsedCycles(), 10u * 11u);
}

TEST(Scheduler, PipelineSharingScalesCost)
{
    Dpu dpu;
    // 16 active tasklets > issue interval 11: each instruction costs 16
    // cycles while all 16 are active.
    dpu.run(16, [](Tasklet &t) { t.execute(10); });
    EXPECT_EQ(dpu.lastElapsedCycles(), 10u * 16u);
}

TEST(Scheduler, FewTaskletsBoundedByIssueInterval)
{
    Dpu dpu;
    // 4 active tasklets < 11: still the 11-cycle interval.
    dpu.run(4, [](Tasklet &t) { t.execute(10); });
    EXPECT_EQ(dpu.lastElapsedCycles(), 10u * 11u);
}

TEST(Scheduler, DeterministicInterleaving)
{
    auto run_once = [] {
        Dpu dpu;
        std::vector<unsigned> order;
        dpu.run(4, [&](Tasklet &t) {
            for (int i = 0; i < 3; ++i) {
                order.push_back(t.id());
                t.execute(1 + t.id());
            }
        });
        return order;
    };
    EXPECT_EQ(run_once(), run_once());
}

TEST(Scheduler, MinClockFirst)
{
    Dpu dpu;
    std::vector<unsigned> order;
    dpu.run(2, [&](Tasklet &t) {
        if (t.id() == 0) {
            t.execute(100); // big first charge
            order.push_back(0);
        } else {
            t.execute(1); // small charges keep tasklet 1 behind
            order.push_back(1);
            t.execute(1);
            order.push_back(1);
        }
    });
    // Tasklet 1's cheap steps complete before tasklet 0's expensive one.
    EXPECT_EQ(order, (std::vector<unsigned>{1, 1, 0}));
}

TEST(Scheduler, StallChargesRawCycles)
{
    Dpu dpu;
    dpu.run(16, [](Tasklet &t) { t.stall(100, CycleKind::IdleEtc); });
    // No pipeline scaling for stalls.
    EXPECT_EQ(dpu.lastElapsedCycles(), 100u);
}

TEST(Scheduler, BreakdownAttribution)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.execute(10, CycleKind::Run);
        t.execute(5, CycleKind::BusyWait);
        t.stall(33, CycleKind::IdleMemory);
    });
    const auto &bd = dpu.lastBreakdown();
    EXPECT_EQ(bd.of(CycleKind::Run), 110u);
    EXPECT_EQ(bd.of(CycleKind::BusyWait), 55u);
    EXPECT_EQ(bd.of(CycleKind::IdleMemory), 33u);
    EXPECT_EQ(bd.total(), 110u + 55u + 33u);
}

TEST(Scheduler, IdlePaddingForEarlyFinishers)
{
    Dpu dpu;
    dpu.run(2, [](Tasklet &t) {
        t.execute(t.id() == 0 ? 1 : 100);
    });
    const auto &bd = dpu.lastBreakdown();
    // Tasklet 0 finished early; the gap shows up as Idle(Etc).
    EXPECT_GT(bd.of(CycleKind::IdleEtc), 0u);
    // Total accounting covers tasklets x makespan.
    EXPECT_EQ(bd.total(), 2 * dpu.lastElapsedCycles());
}

TEST(Scheduler, DistinctBodies)
{
    // Tasklets with different programs share one body that branches on
    // the tasklet id.
    Dpu dpu;
    int a = 0, b = 0;
    dpu.run(2, [&](Tasklet &t) {
        if (t.id() == 0) {
            a = 1;
            t.execute(1);
        } else {
            b = 2;
            t.execute(2);
        }
    });
    EXPECT_EQ(a, 1);
    EXPECT_EQ(b, 2);
    EXPECT_EQ(dpu.lastElapsedCycles(), 2u * 11u);
}

TEST(Scheduler, ActiveCountDropsAsTaskletsFinish)
{
    // The pipeline cost model sees fewer active tasklets once some
    // finish: a tasklet running alone at the end pays only the issue
    // interval.
    Dpu dpu;
    std::vector<uint64_t> clocks;
    dpu.run(16, [&](Tasklet &t) {
        t.execute(1);
        if (t.id() == 0) {
            // Keep running after everyone else is done.
            for (int i = 0; i < 100; ++i)
                t.execute(1);
            clocks.push_back(t.clock());
        }
    });
    ASSERT_EQ(clocks.size(), 1u);
    // If all 100 instructions had been charged at 16 cycles each the
    // clock would be >= 1616; running mostly alone it is far less.
    EXPECT_LT(clocks[0], 16 + 100 * 16);
    EXPECT_GE(clocks[0], 16 + 100 * 11);
}

TEST(Scheduler, SimEventsCountCharges)
{
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.execute(10);
        t.stall(5, CycleKind::IdleEtc);
        t.dmaRead(0, 64);
        t.execute(0); // zero charges are elided, not events
    });
    EXPECT_EQ(dpu.lastSimEvents(), 3u);
}

TEST(Scheduler, HorizonRunAheadSkipsSwitchesNotEvents)
{
    // Same program under both policies: identical clocks and event
    // counts (the determinism suite checks this exhaustively; this is
    // the smoke version guarding the Dpu plumbing).
    auto run = [](TaskletScheduler::Policy policy) {
        Dpu dpu;
        TaskletScheduler sched(dpu, policy);
        const std::function<void(Tasklet &)> body = [](Tasklet &t) {
            for (int i = 0; i < 10; ++i)
                t.execute(1 + t.id());
        };
        for (int k = 0; k < 4; ++k)
            sched.spawn(body);
        sched.runToCompletion();
        std::vector<uint64_t> out;
        for (size_t i = 0; i < sched.numTasklets(); ++i) {
            out.push_back(sched.tasklet(i).clock());
            out.push_back(sched.tasklet(i).simEvents());
        }
        return out;
    };
    EXPECT_EQ(run(TaskletScheduler::Policy::Horizon),
              run(TaskletScheduler::Policy::NaiveReference));
}

namespace {

/** One FNV-1a step over the bytes of a 64-bit word. */
uint64_t
fnv1a(uint64_t h, uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
    return h;
}

struct BatchRun
{
    std::vector<uint64_t> clocks = std::vector<uint64_t>(16);
    std::vector<uint64_t> events = std::vector<uint64_t>(16);
    std::vector<std::array<uint64_t, kNumCycleKinds>> breakdowns =
        std::vector<std::array<uint64_t, kNumCycleKinds>>(16);
    /** Instructions each tasklet executed. */
    std::vector<uint64_t> instrs = std::vector<uint64_t>(16);
    /** (id, clock) after every batch, in the order the batches end. */
    uint64_t trace = 1469598103934665603ull;
};

void
expectSameRun(const BatchRun &a, const BatchRun &b)
{
    EXPECT_EQ(a.clocks, b.clocks);
    EXPECT_EQ(a.events, b.events);
    EXPECT_EQ(a.breakdowns, b.breakdowns);
    EXPECT_EQ(a.trace, b.trace);
}

/**
 * Sixteen tasklets charge batches of equal instruction blocks. Tasklets
 * 0-4 finish after three short batches, so the pipeline width drops
 * from 16 to 11 while the others are inside long batches that cross
 * many horizons. @p batched issues each batch as one executeRepeated()
 * call, otherwise as n execute() calls.
 */
BatchRun
runBatches(bool batched, TaskletScheduler::Policy policy)
{
    BatchRun r;
    const std::function<void(Tasklet &)> body = [&](Tasklet &t) {
        const unsigned id = t.id();
        const unsigned batches = id < 5 ? 3 : 10;
        for (unsigned b = 0; b < batches; ++b) {
            const uint64_t instrs = 1 + (id + b) % 3;
            const uint64_t n =
                id < 5 ? 20 + 7 * id : 150 + 41 * ((5 * id + b) % 7);
            const CycleKind kind =
                b % 4 == 3 ? CycleKind::BusyWait : CycleKind::Run;
            r.instrs[id] += instrs * n;
            if (batched) {
                t.executeRepeated(instrs, n, kind);
            } else {
                for (uint64_t i = 0; i < n; ++i)
                    t.execute(instrs, kind);
            }
            r.trace = fnv1a(fnv1a(r.trace, id), t.clock());
            t.stall(3 + id, CycleKind::IdleMemory);
        }
        r.clocks[id] = t.clock();
        r.events[id] = t.simEvents();
        r.breakdowns[id] = t.breakdown().cycles;
    };
    Dpu dpu;
    if (policy == TaskletScheduler::Policy::Horizon) {
        dpu.run(16, body);
    } else {
        TaskletScheduler sched(dpu, policy);
        for (int k = 0; k < 16; ++k)
            sched.spawn(body);
        sched.runToCompletion();
    }
    return r;
}

} // namespace

TEST(Scheduler, ExecuteRepeatedMatchesSeparateCharges)
{
    using Policy = TaskletScheduler::Policy;
    const BatchRun oracle = runBatches(false, Policy::NaiveReference);
    {
        SCOPED_TRACE("batched, naive");
        expectSameRun(runBatches(true, Policy::NaiveReference), oracle);
    }
    {
        SCOPED_TRACE("separate, horizon");
        expectSameRun(runBatches(false, Policy::Horizon), oracle);
    }
    {
        SCOPED_TRACE("batched, horizon");
        expectSameRun(runBatches(true, Policy::Horizon), oracle);
    }
    // The early finishers narrowed the pipeline under the long
    // tasklets: their instructions cost between 11 and 16 cycles each.
    const auto &bd = oracle.breakdowns[15];
    const uint64_t exec = bd[size_t(CycleKind::Run)]
        + bd[size_t(CycleKind::BusyWait)];
    EXPECT_LT(exec, 16 * oracle.instrs[15]);
    EXPECT_GT(exec, 11 * oracle.instrs[15]);
}

TEST(Scheduler, ExecuteRepeatedZeroChargesNothing)
{
    Dpu dpu;
    dpu.run(2, [](Tasklet &t) {
        t.execute(1);
        const uint64_t clock = t.clock();
        const uint64_t events = t.simEvents();
        const CycleBreakdown bd = t.breakdown();
        t.executeRepeated(0, 1000);
        t.executeRepeated(5, 0);
        t.executeRepeated(0, 0, CycleKind::BusyWait);
        EXPECT_EQ(t.clock(), clock);
        EXPECT_EQ(t.simEvents(), events);
        EXPECT_EQ(t.breakdown().cycles, bd.cycles);
    });
    EXPECT_EQ(dpu.lastSimEvents(), 2u);
}

TEST(Scheduler, ExecuteRepeatedLoneTaskletIsOneStep)
{
    // A lone tasklet's horizon is UINT64_MAX, so the whole batch fits
    // under it and is applied in one step: 10^12 charges finish at once
    // (charged one by one they would take the host many minutes).
    constexpr uint64_t n = 1'000'000'000'000;
    Dpu dpu;
    dpu.run(1, [](Tasklet &t) {
        t.executeRepeated(3, n, CycleKind::BusyWait);
    });
    EXPECT_EQ(dpu.lastSimEvents(), n);
    EXPECT_EQ(dpu.lastElapsedCycles(), n * 3 * 11);
    EXPECT_EQ(dpu.lastBreakdown().of(CycleKind::BusyWait), n * 3 * 11);
}

TEST(SchedulerDeath, TooManyTaskletsPanics)
{
    Dpu dpu;
    EXPECT_DEATH(dpu.run(25, [](Tasklet &t) { t.execute(1); }),
                 "at most");
}

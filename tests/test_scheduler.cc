/**
 * @file
 * Tests for the deterministic tasklet scheduler and the pipeline cost
 * model: min-clock scheduling, issue-interval scaling, and cycle
 * breakdown accounting.
 */

#include <gtest/gtest.h>

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

TEST(SchedulerDeath, TooManyTaskletsPanics)
{
    Dpu dpu;
    EXPECT_DEATH(dpu.run(25, [](Tasklet &t) { t.execute(1); }),
                 "at most");
}

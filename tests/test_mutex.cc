/**
 * @file
 * Tests for the simulated lock: exclusion, busy-wait accounting and
 * contention statistics, in both the Spin oracle and the parked-waiter
 * Queue mode.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sim/dpu.hh"
#include "sim/mutex.hh"

using namespace pim::sim;

/** The Spin oracle and the production Queue mode must both satisfy
 *  the basic lock contract. */
class Mutex : public ::testing::TestWithParam<SimMutex::Mode>
{
};

TEST_P(Mutex, UncontendedLockUnlock)
{
    Dpu dpu;
    SimMutex m(GetParam());
    dpu.run(1, [&](Tasklet &t) {
        m.lock(t);
        EXPECT_TRUE(m.held());
        m.unlock(t);
        EXPECT_FALSE(m.held());
    });
    EXPECT_EQ(m.acquisitions(), 1u);
    EXPECT_EQ(m.contendedAcquisitions(), 0u);
}

TEST_P(Mutex, MutualExclusion)
{
    Dpu dpu;
    SimMutex m(GetParam());
    int inside = 0;
    int max_inside = 0;
    dpu.run(8, [&](Tasklet &t) {
        for (int i = 0; i < 5; ++i) {
            m.lock(t);
            ++inside;
            max_inside = std::max(max_inside, inside);
            t.execute(20); // critical section
            --inside;
            m.unlock(t);
            t.execute(5);
        }
    });
    EXPECT_EQ(max_inside, 1);
    EXPECT_EQ(m.acquisitions(), 40u);
}

TEST_P(Mutex, ContentionProducesBusyWait)
{
    Dpu dpu;
    SimMutex m(GetParam());
    dpu.run(8, [&](Tasklet &t) {
        m.lock(t);
        t.execute(200); // long critical section forces spinning
        m.unlock(t);
    });
    EXPECT_GT(m.contendedAcquisitions(), 0u);
    EXPECT_GT(dpu.lastBreakdown().of(CycleKind::BusyWait), 0u);
}

TEST_P(Mutex, NoContentionNoBusyWait)
{
    Dpu dpu;
    SimMutex m(GetParam());
    dpu.run(1, [&](Tasklet &t) {
        for (int i = 0; i < 10; ++i) {
            m.lock(t);
            t.execute(10);
            m.unlock(t);
        }
    });
    EXPECT_EQ(dpu.lastBreakdown().of(CycleKind::BusyWait), 0u);
}

TEST_P(Mutex, BusyWaitGrowsWithThreads)
{
    auto busy_wait = [mode = GetParam()](unsigned tasklets) {
        Dpu dpu;
        SimMutex m(mode);
        dpu.run(tasklets, [&](Tasklet &t) {
            for (int i = 0; i < 4; ++i) {
                m.lock(t);
                t.execute(100);
                m.unlock(t);
            }
        });
        return dpu.lastBreakdown().of(CycleKind::BusyWait);
    };
    EXPECT_GT(busy_wait(16), busy_wait(4));
    EXPECT_GT(busy_wait(4), busy_wait(1));
}

INSTANTIATE_TEST_SUITE_P(
    Modes, Mutex,
    ::testing::Values(SimMutex::Mode::Spin, SimMutex::Mode::Queue),
    [](const ::testing::TestParamInfo<SimMutex::Mode> &info) {
        return info.param == SimMutex::Mode::Spin ? "Spin" : "Queue";
    });

TEST(MutexDeath, UnlockFreePanics)
{
    Dpu dpu;
    SimMutex m;
    EXPECT_DEATH(dpu.run(1, [&](Tasklet &t) { m.unlock(t); }),
                 "unlock of a free mutex");
}

TEST(MutexQueue, MutualExclusionAndParkStats)
{
    Dpu dpu;
    SimMutex m(SimMutex::Mode::Queue);
    EXPECT_EQ(m.mode(), SimMutex::Mode::Queue);
    int inside = 0;
    int max_inside = 0;
    dpu.run(8, [&](Tasklet &t) {
        for (int i = 0; i < 5; ++i) {
            m.lock(t);
            ++inside;
            max_inside = std::max(max_inside, inside);
            t.execute(20);
            --inside;
            m.unlock(t);
            t.execute(5);
        }
    });
    EXPECT_EQ(max_inside, 1);
    EXPECT_EQ(m.acquisitions(), 40u);
    EXPECT_FALSE(m.held());
    // The contended portion of the workload must exercise parking, and
    // every park episode must be balanced by a wake.
    EXPECT_GT(m.parkedCount(), 0u);
    EXPECT_EQ(m.parkedCount(), m.wokenCount());
    EXPECT_GE(m.elidedSpinEvents(), m.parkedCount());
}

TEST(MutexQueue, BusyWaitMatchesSpinExactly)
{
    // Per-tasklet breakdown equivalence on a contended workload — the
    // system-level contract is in test_sim_determinism; this is the
    // narrow mutex-only version.
    auto run = [](SimMutex::Mode mode) {
        Dpu dpu;
        SimMutex m(mode);
        dpu.run(16, [&](Tasklet &t) {
            for (int i = 0; i < 4; ++i) {
                m.lock(t);
                t.execute(100 + t.id() % 3);
                m.unlock(t);
                t.execute(9);
            }
        });
        return std::pair{dpu.lastElapsedCycles(),
                         dpu.lastBreakdown().of(CycleKind::BusyWait)};
    };
    EXPECT_EQ(run(SimMutex::Mode::Spin), run(SimMutex::Mode::Queue));
}

TEST(MutexQueue, CappedWaitAcrossFinishesMatchesSpin)
{
    // Tasklet 0 holds the lock for ~20,000 instructions while tasklets
    // 1 and 2 wait on it, so each wait runs through dozens of capped
    // 256-instruction batches. Tasklets 3..15 never touch the lock and
    // finish one by one during the wait, so the pipeline width the
    // waiters' re-checks pay drops from 16 to the issue interval (11)
    // part-way through each wait.
    struct Outcome
    {
        std::vector<uint64_t> clocks;
        std::vector<CycleBreakdown> breakdowns;
        uint64_t elapsed = 0;
        uint64_t events = 0;
        uint64_t elided = 0;
        uint64_t contended = 0;
    };
    auto run = [](SimMutex::Mode mode) {
        Dpu dpu;
        SimMutex m(mode);
        Outcome o;
        o.clocks.resize(16);
        o.breakdowns.resize(16);
        dpu.run(16, [&](Tasklet &t) {
            if (t.id() == 0) {
                m.lock(t);
                for (int i = 0; i < 40; ++i)
                    t.execute(500);
                m.unlock(t);
            } else if (t.id() <= 2) {
                t.execute(3 * t.id());
                for (int i = 0; i < 2; ++i) {
                    m.lock(t);
                    t.execute(10 + t.id());
                    m.unlock(t);
                    t.execute(2);
                }
            } else {
                t.execute(400 * t.id());
            }
            o.clocks[t.id()] = t.clock();
            o.breakdowns[t.id()] = t.breakdown();
        });
        o.elapsed = dpu.lastElapsedCycles();
        o.events = dpu.lastSimEvents();
        o.elided = m.elidedSpinEvents();
        o.contended = m.contendedAcquisitions();
        return o;
    };
    const Outcome spin = run(SimMutex::Mode::Spin);
    const Outcome queue = run(SimMutex::Mode::Queue);

    // The scenario is what it claims: the lock holder runs past every
    // finish of tasklets 3..15, and the waiters re-checked many times.
    for (unsigned k = 3; k < 16; ++k)
        EXPECT_LT(spin.clocks[k], spin.clocks[0]) << "tasklet " << k;
    EXPECT_GE(spin.contended, 2u);
    EXPECT_GT(queue.elided, 100u);

    EXPECT_EQ(queue.clocks, spin.clocks);
    for (size_t i = 0; i < spin.breakdowns.size(); ++i)
        EXPECT_EQ(queue.breakdowns[i].cycles, spin.breakdowns[i].cycles)
            << "tasklet " << i;
    EXPECT_EQ(queue.elapsed, spin.elapsed);
    EXPECT_EQ(queue.contended, spin.contended);
    EXPECT_EQ(spin.elided, 0u);
    EXPECT_EQ(queue.events + queue.elided, spin.events);
}

TEST(MutexQueue, UncontendedNeverParks)
{
    Dpu dpu;
    SimMutex m(SimMutex::Mode::Queue);
    dpu.run(1, [&](Tasklet &t) {
        for (int i = 0; i < 10; ++i) {
            m.lock(t);
            t.execute(10);
            m.unlock(t);
        }
    });
    EXPECT_EQ(m.parkedCount(), 0u);
    EXPECT_EQ(m.elidedSpinEvents(), 0u);
    EXPECT_EQ(dpu.lastBreakdown().of(CycleKind::BusyWait), 0u);
}

TEST(MutexQueue, StatsSnapshotAndMerge)
{
    Dpu dpu;
    SimMutex m(SimMutex::Mode::Queue);
    dpu.run(4, [&](Tasklet &t) {
        m.lock(t);
        t.execute(50);
        m.unlock(t);
    });
    const SimMutexStats s = m.statsSnapshot();
    EXPECT_EQ(s.acquisitions, m.acquisitions());
    EXPECT_EQ(s.contended, m.contendedAcquisitions());
    EXPECT_EQ(s.parked, m.parkedCount());
    EXPECT_EQ(s.woken, m.wokenCount());
    EXPECT_EQ(s.elidedSpinEvents, m.elidedSpinEvents());

    SimMutexStats sum = s;
    sum.merge(s);
    EXPECT_EQ(sum.acquisitions, 2 * s.acquisitions);
    EXPECT_EQ(sum.elidedSpinEvents, 2 * s.elidedSpinEvents);
}

TEST(MutexQueueDeath, LeakedLockIsDeadlockFatal)
{
    // A tasklet that finishes while holding the lock strands every
    // parked waiter; the scheduler must fail loudly, not hang or
    // silently drop tasklets.
    Dpu dpu;
    SimMutex m(SimMutex::Mode::Queue);
    EXPECT_DEATH(dpu.run(2, [&](Tasklet &t) {
        m.lock(t); // tasklet 0 wins and never unlocks
        t.execute(10);
    }), "deadlock");
}

TEST(MutexQueueDeath, AllTaskletsParkedIsFatal)
{
    Dpu dpu;
    SimMutex m(SimMutex::Mode::Queue);
    EXPECT_DEATH(dpu.run(4, [&](Tasklet &t) {
        if (t.id() == 0) {
            m.lock(t);
            t.execute(5);
            // finish holding the lock: the other three all park
        } else {
            t.execute(1);
            m.lock(t);
            m.unlock(t);
        }
    }), "deadlock");
}

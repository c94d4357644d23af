/**
 * @file
 * Tests for the simulated lock: exclusion, busy-wait accounting,
 * contention statistics, and tryLock semantics, in both the Spin oracle
 * and the parked-waiter Queue mode.
 */

#include <gtest/gtest.h>

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

TEST_P(Mutex, TryLock)
{
    Dpu dpu;
    SimMutex m(GetParam());
    dpu.run(1, [&](Tasklet &t) {
        EXPECT_TRUE(m.tryLock(t));
        EXPECT_FALSE(m.tryLock(t)); // already held
        m.unlock(t);
        EXPECT_TRUE(m.tryLock(t));
        m.unlock(t);
    });
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

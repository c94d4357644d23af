/**
 * @file
 * Golden determinism suite for the simulation core.
 *
 * The horizon scheduler skips context switches that would immediately
 * resume the same tasklet; that must be invisible to the simulation.
 * These tests run a contended 16-tasklet workload (mutex spinning, MRAM
 * DMA, asymmetric compute) under both scheduling policies and assert
 * every observable is identical: per-tasklet clocks, event counts,
 * cycle breakdowns, mutex statistics, DMA traffic, shared-memory
 * results, and the exact execution interleaving (as a trace hash).
 *
 * The trace hash is also pinned to a golden constant, so the asm and
 * ucontext fiber CI legs — separate binaries — are checked against the
 * same interleaving. If you intentionally change the cost model or the
 * workload below, rebuild and run this binary: GoldenTraceHash fails
 * and prints the new hash to paste into kGoldenTraceHash.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/dpu.hh"
#include "sim/mutex.hh"
#include "sim/scheduler.hh"

using namespace pim::sim;

namespace {

/** FNV-1a over 64-bit words; stable across platforms and compilers. */
struct TraceHash
{
    uint64_t h = 1469598103934665603ull;

    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 1099511628211ull;
        }
    }
};

struct RunResult
{
    std::vector<uint64_t> clocks;
    std::vector<uint64_t> events;
    std::vector<CycleBreakdown> breakdowns;
    uint64_t elapsed = 0;
    uint64_t mutexAcquisitions = 0;
    uint64_t mutexContended = 0;
    uint64_t mutexParked = 0;
    uint64_t mutexWoken = 0;
    uint64_t mutexElided = 0;
    uint64_t trafficBytes = 0;
    uint64_t dmaTransfers = 0;
    uint64_t sharedCounter = 0;
    uint64_t traceHash = 0;

    uint64_t
    totalEvents() const
    {
        uint64_t sum = 0;
        for (const uint64_t e : events)
            sum += e;
        return sum;
    }
};

constexpr unsigned kTasklets = 16;
constexpr unsigned kIters = 24;

constexpr MramAddr kCounterAddr = 64;

/**
 * One tasklet of a deliberately nasty interleaving workload: every
 * tasklet loops over (spin-lock, read-modify-write a shared MRAM
 * counter, unlock, then an id-skewed compute block and an id-skewed
 * DMA), so lock hand-off order, spin batching, and DMA visibility all
 * feed the result.
 */
void
workloadTasklet(Tasklet &t, SimMutex &mutex, TraceHash &trace)
{
    for (unsigned it = 0; it < kIters; ++it) {
        mutex.lock(t);
        const auto v = t.mramRead<uint64_t>(kCounterAddr);
        t.execute(3 + t.id() % 5);
        t.mramWrite<uint64_t>(kCounterAddr, v + 1 + t.id());
        mutex.unlock(t);
        trace.add((static_cast<uint64_t>(t.id()) << 32) | it);
        trace.add(t.clock());
        t.execute(7 + 3 * t.id());
        t.dmaRead(128 + 8 * t.id(), 16 + 8 * (t.id() % 3));
        t.stall(5 + t.id(), CycleKind::IdleEtc);
    }
}

/** Fill in the DPU-, mutex- and trace-level fields of @p r. */
void
harvest(RunResult &r, const Dpu &dpu, const SimMutex &mutex,
        const TraceHash &trace)
{
    r.mutexAcquisitions = mutex.acquisitions();
    r.mutexContended = mutex.contendedAcquisitions();
    r.mutexParked = mutex.parkedCount();
    r.mutexWoken = mutex.wokenCount();
    r.mutexElided = mutex.elidedSpinEvents();
    r.trafficBytes = dpu.traffic().totalBytes();
    r.dmaTransfers = dpu.traffic().dmaTransfers;
    r.sharedCounter = dpu.mram().read<uint64_t>(kCounterAddr);
    r.traceHash = trace.h;
}

/** The workload on an explicitly built scheduler and mutex. */
RunResult
runWorkload(TaskletScheduler::Policy policy,
            SimMutex::Mode mutex_mode = SimMutex::Mode::Spin)
{
    Dpu dpu;
    TaskletScheduler sched(dpu, policy);
    SimMutex mutex(mutex_mode);
    dpu.mram().write<uint64_t>(kCounterAddr, 0);

    TraceHash trace;
    const std::function<void(Tasklet &)> body = [&](Tasklet &t) {
        workloadTasklet(t, mutex, trace);
    };
    for (unsigned i = 0; i < kTasklets; ++i)
        sched.spawn(body);
    sched.runToCompletion();

    RunResult r;
    for (size_t i = 0; i < sched.numTasklets(); ++i) {
        r.clocks.push_back(sched.tasklet(i).clock());
        r.events.push_back(sched.tasklet(i).simEvents());
        r.breakdowns.push_back(sched.tasklet(i).breakdown());
    }
    r.elapsed = sched.elapsedCycles();
    harvest(r, dpu, mutex, trace);
    return r;
}

/**
 * The workload on the path every bench and driver takes: Dpu::run and
 * a default-constructed SimMutex. Dpu::run keeps its scheduler to
 * itself, so each tasklet reports its own totals as it finishes.
 */
RunResult
runProductionWorkload()
{
    Dpu dpu;
    SimMutex mutex;
    dpu.mram().write<uint64_t>(kCounterAddr, 0);

    TraceHash trace;
    RunResult r;
    r.clocks.resize(kTasklets);
    r.events.resize(kTasklets);
    r.breakdowns.resize(kTasklets);
    r.elapsed = dpu.run(kTasklets, [&](Tasklet &t) {
        workloadTasklet(t, mutex, trace);
        r.clocks[t.id()] = t.clock();
        r.events[t.id()] = t.simEvents();
        r.breakdowns[t.id()] = t.breakdown();
    });
    harvest(r, dpu, mutex, trace);
    return r;
}

/**
 * Golden interleaving hash of the workload above. Identical for the
 * horizon and naive schedulers and for the asm and ucontext fiber
 * backends, on every compiler/arch/sanitizer combination.
 */
constexpr uint64_t kGoldenTraceHash = 0xd5c4d11022def0b0ull;

} // namespace

TEST(SimDeterminism, HorizonMatchesNaiveReference)
{
    const RunResult horizon = runWorkload(TaskletScheduler::Policy::Horizon);
    const RunResult naive =
        runWorkload(TaskletScheduler::Policy::NaiveReference);

    EXPECT_EQ(horizon.traceHash, naive.traceHash);
    EXPECT_EQ(horizon.elapsed, naive.elapsed);
    EXPECT_EQ(horizon.mutexAcquisitions, naive.mutexAcquisitions);
    EXPECT_EQ(horizon.mutexContended, naive.mutexContended);
    EXPECT_EQ(horizon.trafficBytes, naive.trafficBytes);
    EXPECT_EQ(horizon.dmaTransfers, naive.dmaTransfers);
    EXPECT_EQ(horizon.sharedCounter, naive.sharedCounter);
    ASSERT_EQ(horizon.clocks.size(), naive.clocks.size());
    for (size_t i = 0; i < horizon.clocks.size(); ++i) {
        EXPECT_EQ(horizon.clocks[i], naive.clocks[i]) << "tasklet " << i;
        EXPECT_EQ(horizon.events[i], naive.events[i]) << "tasklet " << i;
        for (size_t k = 0; k < kNumCycleKinds; ++k)
            EXPECT_EQ(horizon.breakdowns[i].cycles[k],
                      naive.breakdowns[i].cycles[k])
                << "tasklet " << i << " kind " << k;
    }
}

TEST(SimDeterminism, WorkloadIsActuallyContended)
{
    const RunResult r = runWorkload(TaskletScheduler::Policy::Horizon);
    // The golden workload must keep exercising lock contention and
    // busy-wait accounting, or the comparison above proves nothing.
    EXPECT_EQ(r.mutexAcquisitions, uint64_t{kTasklets} * kIters);
    EXPECT_GT(r.mutexContended, 0u);
    uint64_t busy = 0;
    for (const auto &bd : r.breakdowns)
        busy += bd.of(CycleKind::BusyWait);
    EXPECT_GT(busy, 0u);
}

TEST(SimDeterminism, GoldenTraceHash)
{
    const RunResult r = runWorkload(TaskletScheduler::Policy::Horizon);
    EXPECT_EQ(r.traceHash, kGoldenTraceHash)
        << "Interleaving changed. If the cost model or golden workload "
           "changed intentionally, update kGoldenTraceHash to 0x"
        << std::hex << r.traceHash;
}

/**
 * The heart of the queue-mode fidelity contract: parked waiters with
 * analytically replayed spin schedules must produce *exactly* the
 * simulation the spin model produces — same per-tasklet clocks, same
 * cycle breakdowns (BusyWait included), same interleaving hash, same
 * allocation-visible memory state. Only the real event counts differ,
 * and those differ by precisely the number of elided spin re-checks.
 */
TEST(SimDeterminism, QueueMutexMatchesSpinExactly)
{
    const RunResult spin = runWorkload(TaskletScheduler::Policy::Horizon,
                                       SimMutex::Mode::Spin);
    const RunResult queue = runWorkload(TaskletScheduler::Policy::Horizon,
                                        SimMutex::Mode::Queue);

    EXPECT_EQ(queue.traceHash, spin.traceHash);
    EXPECT_EQ(queue.elapsed, spin.elapsed);
    EXPECT_EQ(queue.mutexAcquisitions, spin.mutexAcquisitions);
    EXPECT_EQ(queue.mutexContended, spin.mutexContended);
    EXPECT_EQ(queue.trafficBytes, spin.trafficBytes);
    EXPECT_EQ(queue.dmaTransfers, spin.dmaTransfers);
    EXPECT_EQ(queue.sharedCounter, spin.sharedCounter);
    ASSERT_EQ(queue.clocks.size(), spin.clocks.size());
    for (size_t i = 0; i < queue.clocks.size(); ++i) {
        EXPECT_EQ(queue.clocks[i], spin.clocks[i]) << "tasklet " << i;
        for (size_t k = 0; k < kNumCycleKinds; ++k)
            EXPECT_EQ(queue.breakdowns[i].cycles[k],
                      spin.breakdowns[i].cycles[k])
                << "tasklet " << i << " kind " << k;
    }

    // Event-count identity: every elided virtual re-check corresponds
    // to exactly one spin-model charge, so charged + elided == spin
    // charges. This is what makes events/s comparisons across modes
    // honest (bench_sim_throughput reports model events this way).
    EXPECT_LT(queue.totalEvents(), spin.totalEvents());
    EXPECT_EQ(queue.totalEvents() + queue.mutexElided,
              spin.totalEvents());

    // The workload must actually exercise the park/wake machinery.
    EXPECT_GT(queue.mutexParked, 0u);
    EXPECT_GT(queue.mutexWoken, 0u);
    EXPECT_EQ(spin.mutexParked, 0u);
}

TEST(SimDeterminism, QueueMutexHorizonMatchesNaiveReference)
{
    const RunResult horizon = runWorkload(TaskletScheduler::Policy::Horizon,
                                          SimMutex::Mode::Queue);
    const RunResult naive =
        runWorkload(TaskletScheduler::Policy::NaiveReference,
                    SimMutex::Mode::Queue);
    EXPECT_EQ(horizon.traceHash, naive.traceHash);
    EXPECT_EQ(horizon.clocks, naive.clocks);
    EXPECT_EQ(horizon.events, naive.events);
    EXPECT_EQ(horizon.mutexElided, naive.mutexElided);
    EXPECT_EQ(horizon.sharedCounter, naive.sharedCounter);
}

TEST(SimDeterminism, QueueMutexGoldenTraceHash)
{
    // Queue mode reproduces the *same* golden interleaving as spin —
    // the fidelity contract pinned to a constant.
    const RunResult r = runWorkload(TaskletScheduler::Policy::Horizon,
                                    SimMutex::Mode::Queue);
    EXPECT_EQ(r.traceHash, kGoldenTraceHash)
        << "Queue-mode interleaving diverged from the spin model. "
           "Actual hash: 0x" << std::hex << r.traceHash;
}

/**
 * What every production run executes — Dpu::run, hence the horizon
 * scheduler, on a default-constructed (queue) mutex — checked against
 * both oracles at once: the naive scheduler with the spin mutex. Every
 * simulated observable matches; only the charged/elided split of the
 * event count differs.
 */
TEST(SimDeterminism, ProductionPathMatchesOracles)
{
    EXPECT_EQ(SimMutex().mode(), SimMutex::Mode::Queue);
    const RunResult prod = runProductionWorkload();
    const RunResult oracle =
        runWorkload(TaskletScheduler::Policy::NaiveReference,
                    SimMutex::Mode::Spin);

    EXPECT_EQ(prod.traceHash, kGoldenTraceHash);
    EXPECT_GT(prod.mutexElided, 0u);
    EXPECT_EQ(prod.elapsed, oracle.elapsed);
    EXPECT_EQ(prod.clocks, oracle.clocks);
    ASSERT_EQ(prod.breakdowns.size(), oracle.breakdowns.size());
    for (size_t i = 0; i < prod.breakdowns.size(); ++i)
        for (size_t k = 0; k < kNumCycleKinds; ++k)
            EXPECT_EQ(prod.breakdowns[i].cycles[k],
                      oracle.breakdowns[i].cycles[k])
                << "tasklet " << i << " kind " << k;
    EXPECT_EQ(prod.mutexAcquisitions, oracle.mutexAcquisitions);
    EXPECT_EQ(prod.mutexContended, oracle.mutexContended);
    EXPECT_EQ(prod.totalEvents() + prod.mutexElided, oracle.totalEvents());
}

TEST(SimDeterminism, RepeatedRunsAreIdentical)
{
    const RunResult a = runWorkload(TaskletScheduler::Policy::Horizon);
    const RunResult b = runWorkload(TaskletScheduler::Policy::Horizon);
    EXPECT_EQ(a.traceHash, b.traceHash);
    EXPECT_EQ(a.clocks, b.clocks);
}

TEST(SimDeterminism, ExplicitPolicyConstruction)
{
    Dpu dpu;
    TaskletScheduler horizon(dpu);
    EXPECT_EQ(horizon.policy(), TaskletScheduler::Policy::Horizon);
    TaskletScheduler naive(dpu, TaskletScheduler::Policy::NaiveReference);
    EXPECT_EQ(naive.policy(), TaskletScheduler::Policy::NaiveReference);
}

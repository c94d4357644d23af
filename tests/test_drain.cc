/**
 * @file
 * Drain contract tests. For any command script — tenants,
 * dependencies, scatter copies, timed launches, injected faults, ranks
 * with no sampled member — the drain's complete observable outcome is
 * bit-identical for any worker-thread count. The differential below compares full
 * outcome digests with exact double equality, the same bar the
 * mutex-mode fuzz sets.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "fault/injector.hh"
#include "sim/dpu.hh"
#include "telemetry/registry.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"
#include "util/rng.hh"

using namespace pim;
using core::CommandQueue;

namespace {

/** Everything a command script can observe, for exact comparison. */
struct Outcome
{
    std::vector<double> eventTimes;
    std::vector<char> eventFailed;
    std::vector<double> makespans;
    std::vector<double> hostT;
    std::vector<double> rankT;
    double busT = 0.0;
    uint64_t transferredBytes = 0;
    double launchWork = 0.0;
    double copyWork = 0.0;
    double hostWork = 0.0;
    /** Order-insensitive sum folded from every launch-body execution
     *  (the launch bodies really ran, on whatever thread). */
    uint64_t workSum = 0;
};

void
expectEqualOutcome(const Outcome &a, const Outcome &b)
{
    EXPECT_EQ(a.eventTimes, b.eventTimes);
    EXPECT_EQ(a.eventFailed, b.eventFailed);
    EXPECT_EQ(a.makespans, b.makespans);
    EXPECT_EQ(a.hostT, b.hostT);
    EXPECT_EQ(a.rankT, b.rankT);
    EXPECT_EQ(a.busT, b.busT);
    EXPECT_EQ(a.transferredBytes, b.transferredBytes);
    EXPECT_EQ(a.launchWork, b.launchWork);
    EXPECT_EQ(a.copyWork, b.copyWork);
    EXPECT_EQ(a.hostWork, b.hostWork);
    EXPECT_EQ(a.workSum, b.workSum);
}

/**
 * A seeded random command storm: three sync rounds of launches (plain,
 * multi-tasklet, timed), async/buffered/scatter copies, host compute,
 * chained dependencies, and three tenants, against full-system,
 * per-rank, and multi-rank targets. A @p sparse system materializes
 * two DPUs (on ranks 0 and 2), so every launch that touches rank 1 or
 * 3 charges it the launch-wide slowest sampled member.
 */
Outcome
runScript(unsigned threads, uint64_t seed, bool faults, bool sparse)
{
    core::PimSystemConfig cfg;
    cfg.numDpus = 256; // 4 ranks of 64
    cfg.sampleDpus = sparse ? 2 : 32;
    cfg.simThreads = threads;
    core::PimSystem sys(cfg);
    CommandQueue queue(sys);
    if (sparse) {
        EXPECT_TRUE(sys.rank(1).slots().empty());
        EXPECT_TRUE(sys.rank(3).slots().empty());
    }

    std::unique_ptr<fault::FaultInjector> inj;
    if (faults) {
        // Explicit schedule (not MTBF-drawn) so every fault class is
        // guaranteed to fire inside the script's short makespan: a
        // hang reaped by the timeout, a degraded rank, a transient
        // transfer, and a rank that dies almost immediately (poisoning
        // every dependent chain that touches it).
        fault::FaultSpec fs;
        fs.launchTimeoutSec = 0.01;
        std::vector<fault::FaultEvent> evs;
        fault::FaultEvent hang;
        hang.kind = fault::FaultKind::LaunchHang;
        hang.atSec = 1e-4;
        hang.rank = 0;
        evs.push_back(hang);
        fault::FaultEvent xfer;
        xfer.kind = fault::FaultKind::TransientTransfer;
        xfer.atSec = 2e-4;
        xfer.attempts = 2;
        evs.push_back(xfer);
        fault::FaultEvent degrade;
        degrade.kind = fault::FaultKind::RankDegrade;
        degrade.atSec = 0.0;
        degrade.rank = 1;
        degrade.multiplier = 3.0;
        degrade.durationSec = 0.01;
        evs.push_back(degrade);
        fault::FaultEvent dead;
        dead.kind = fault::FaultKind::RankFail;
        dead.atSec = 5e-4;
        dead.rank = 2;
        evs.push_back(dead);
        inj = std::make_unique<fault::FaultInjector>(
            fault::FaultPlan(fs, std::move(evs), sys.numRanks()));
        queue.attachFaultInjector(inj.get());
    }

    const core::TenantId tenants[3] = {core::kDefaultTenant,
                                       queue.addTenant("alpha"),
                                       queue.addTenant("beta")};

    // Every target keeps a sampled member: a launch with none is fatal.
    std::vector<core::DpuSet> sets;
    sets.push_back(sys.all());
    for (unsigned r = 0; r < sys.numRanks(); ++r) {
        if (!sys.rank(r).slots().empty())
            sets.push_back(sys.rank(r));
    }
    sets.push_back(sys.ranks({1, 2}));
    sets.push_back(sys.ranks({1, 2, 3}));
    sets.push_back(sys.ranks({0, 3}));

    Outcome out;
    std::atomic<uint64_t> work_sum{0};
    util::Rng rng(seed * 7919 + 17);
    std::vector<core::Event> recent;

    auto mkopts = [&]() {
        core::CommandOptions o;
        o.tenant = tenants[rng.uniformInt(3)];
        if (!recent.empty() && rng.bernoulli(0.4))
            o.after = recent[recent.size() - 1
                             - rng.uniformInt(std::min<uint64_t>(
                                   recent.size(), 6))];
        return o;
    };
    auto direction = [&]() {
        return rng.bernoulli(0.5) ? core::CopyDirection::HostToPim
                                  : core::CopyDirection::PimToHost;
    };

    for (int round = 0; round < 3; ++round) {
        std::vector<core::Event> round_events;
        for (int i = 0; i < 110; ++i) {
            const core::DpuSet &set =
                sets[rng.uniformInt(sets.size())];
            core::Event e = core::kNoEvent;
            switch (rng.uniformInt(8)) {
              case 0:
              case 1:
              case 2: {
                const uint32_t w =
                    20 + static_cast<uint32_t>(rng.uniformInt(40));
                e = queue.launch(
                    set, 1 + static_cast<unsigned>(rng.uniformInt(3)),
                    [w, &work_sum](sim::Tasklet &t, unsigned global) {
                        t.execute(w + global % 11);
                        work_sum.fetch_add(global + w,
                                           std::memory_order_relaxed);
                    },
                    mkopts());
                break;
              }
              case 3:
                e = queue.launchTimed(
                    set, 1e-4 * static_cast<double>(
                                    1 + rng.uniformInt(20)),
                    mkopts());
                break;
              case 4:
                e = queue.memcpyAsync(set, 256 + rng.uniformInt(4096),
                                      direction(), mkopts());
                break;
              case 5:
                e = queue.memcpyBufferedAsync(
                    set, 128 + rng.uniformInt(1024), direction(),
                    mkopts());
                break;
              case 6: {
                std::vector<uint64_t> per_dpu(set.size());
                for (uint64_t &b : per_dpu)
                    b = 8 + rng.uniformInt(64);
                e = queue.memcpyScatterAsync(set, std::move(per_dpu),
                                             direction(), mkopts());
                break;
              }
              case 7:
                queue.hostCompute(1 + rng.uniformInt(64), 200,
                                  mkopts());
                break;
            }
            if (e != core::kNoEvent) {
                recent.push_back(e);
                round_events.push_back(e);
            }
        }
        // Query every event of the round before sync() compacts it.
        for (const core::Event e : round_events) {
            out.eventTimes.push_back(queue.eventSeconds(e));
            out.eventFailed.push_back(queue.eventFailed(e) ? 1 : 0);
        }
        out.makespans.push_back(queue.sync());
    }

    for (unsigned t = 0; t < queue.tenantCount(); ++t)
        out.hostT.push_back(queue.hostSeconds(t));
    for (unsigned r = 0; r < sys.numRanks(); ++r)
        out.rankT.push_back(queue.rankReadySeconds(r));
    out.busT = queue.busReadySeconds();
    out.transferredBytes = queue.transferredBytes();
    out.launchWork = queue.launchWorkSeconds();
    out.copyWork = queue.copyWorkSeconds();
    out.hostWork = queue.hostWorkSeconds();
    out.workSum = work_sum.load();
    return out;
}

} // namespace

/** Seeded random-script differential of the drain across worker
 *  counts, exact. */
class DrainFuzz
    : public ::testing::TestWithParam<std::tuple<int, bool, bool>>
{
};

TEST_P(DrainFuzz, ThreadCountInvariant)
{
    const auto [seed_param, faults, sparse] = GetParam();
    const uint64_t seed = static_cast<uint64_t>(seed_param);
    // threads=1 runs every chain inline on the caller; 4 and 7 shard
    // the slot chains (32, or 2 when sparse) over the pool.
    const Outcome one = runScript(1, seed, faults, sparse);
    expectEqualOutcome(one, runScript(4, seed, faults, sparse));
    expectEqualOutcome(one, runScript(7, seed, faults, sparse));
    EXPECT_FALSE(one.eventTimes.empty());
    if (faults) {
        // The fault plan actually fired, so the differential covered
        // the failure paths too.
        bool any_failed = false;
        for (const char f : one.eventFailed)
            any_failed = any_failed || f != 0;
        EXPECT_TRUE(any_failed);
    }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsFaultsAndSampling, DrainFuzz,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(false, true),
                       ::testing::Values(false, true)));

TEST(DrainStats, AccumulateAndResetWithTimeline)
{
    core::PimSystemConfig cfg;
    cfg.numDpus = 128;
    cfg.sampleDpus = 4;
    cfg.simThreads = 2;
    core::PimSystem sys(cfg);
    CommandQueue queue(sys);

    for (int i = 0; i < 3; ++i)
        queue.launch(sys.all(), 1,
                     [](sim::Tasklet &t, unsigned) { t.execute(25); });
    queue.memcpyAsync(sys.all(), 1024,
                      core::CopyDirection::HostToPim);
    queue.sync();
    const CommandQueue::DrainStats &st = queue.drainStats();
    EXPECT_EQ(st.drains, 1u);
    EXPECT_EQ(st.commands, 4u);
    EXPECT_GT(st.wallSec, 0.0);
    EXPECT_GE(st.phase1Sec, 0.0);
    EXPECT_GE(st.phase2Sec, 0.0);

    queue.resetTimeline();
    EXPECT_EQ(queue.drainStats().drains, 0u);
    EXPECT_EQ(queue.drainStats().commands, 0u);
    EXPECT_EQ(queue.drainStats().wallSec, 0.0);
}

namespace {

/** FNV-1a over the bytes of @p s; stable across platforms. */
uint64_t
fnv1a(const std::string &s)
{
    uint64_t h = 1469598103934665603ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
    }
    return h;
}

struct ObservedRun
{
    std::string trace;
    std::string snapshot;
    std::vector<char> failed;
};

/**
 * A fixed script through every path of the fold, with a Recorder and
 * a Registry attached to one queue: two tenants; a full-system program
 * on a sparse sample (ranks 1 and 3 take the representative charge); a
 * per-rank launch and a timed one; copies in both directions, scatter
 * and double-buffered; host work, an idle-until that advances and one
 * that does not; an `after` dependency; a timeline reset. After the
 * reset an explicit fault plan retries a transient transfer, times out
 * a launch, kills a rank mid-launch, poisons a dependent program,
 * fails a copy to the dead rank, and hangs a full-system launch that
 * also finds the rank dead at its start.
 */
ObservedRun
runObservedScript(unsigned threads)
{
    core::PimSystemConfig cfg;
    cfg.numDpus = 256; // 4 ranks of 64, sampled members on ranks 0, 2
    cfg.sampleDpus = 2;
    cfg.simThreads = threads;
    core::PimSystem sys(cfg);
    CommandQueue queue(sys);
    trace::Recorder rec;
    telemetry::Registry met(/*sampler_cadence_sec=*/1e-4);
    queue.attachRecorder(&rec);
    queue.attachMetrics(&met);
    const core::TenantId alpha = queue.addTenant("alpha");
    const core::TenantId beta = queue.addTenant("beta");
    const auto program = [](sim::Dpu &dpu, unsigned global) {
        dpu.run(2, [global](sim::Tasklet &t) {
            t.execute(100 + global % 7);
        });
    };

    const core::Event build = queue.launchProgram(
        sys.all(), program, {.label = "build", .tenant = alpha});
    queue.launch(sys.rank(0), 1,
                 [](sim::Tasklet &t, unsigned) { t.execute(40); },
                 {.tenant = beta});
    queue.launchTimed(sys.ranks({1, 2}), 2e-4,
                      {.after = build, .label = "attn"});
    queue.memcpyAsync(sys.all(), 4096, core::CopyDirection::HostToPim,
                      {.tenant = alpha});
    queue.memcpyAsync(sys.rank(2), 1024, core::CopyDirection::PimToHost,
                      {.label = "gather"});
    const core::DpuSet scatter_set = sys.ranks({0, 3});
    std::vector<uint64_t> per_dpu(scatter_set.size());
    for (size_t i = 0; i < per_dpu.size(); ++i)
        per_dpu[i] = 16 + 8 * (i % 5);
    queue.memcpyScatterAsync(scatter_set, per_dpu,
                             core::CopyDirection::HostToPim,
                             {.tenant = beta});
    queue.memcpyBufferedAsync(sys.rank(1), 512,
                              core::CopyDirection::HostToPim);
    queue.hostBusy(5e-5, {.label = "bookkeeping", .tenant = alpha});
    queue.hostCompute(8, 400);
    queue.hostIdleUntil(2e-3, {.label = "wait:arrival", .tenant = beta});
    queue.hostIdleUntil(0.0);
    queue.sync();
    queue.resetTimeline();

    fault::FaultSpec fs;
    fs.launchTimeoutSec = 1e-3;
    std::vector<fault::FaultEvent> evs;
    fault::FaultEvent xfer;
    xfer.kind = fault::FaultKind::TransientTransfer;
    xfer.atSec = 0.0;
    xfer.attempts = 1;
    evs.push_back(xfer);
    fault::FaultEvent hang;
    hang.kind = fault::FaultKind::LaunchHang;
    hang.atSec = 0.0;
    hang.rank = 2;
    evs.push_back(hang);
    fault::FaultEvent dead;
    dead.kind = fault::FaultKind::RankFail;
    dead.atSec = 4e-4;
    dead.rank = 1;
    evs.push_back(dead);
    fault::FaultInjector inj(
        fault::FaultPlan(fs, std::move(evs), sys.numRanks()));
    queue.attachFaultInjector(&inj);

    ObservedRun out;
    std::vector<core::Event> events;
    events.push_back(queue.memcpyAsync(sys.all(), 2048,
                                       core::CopyDirection::HostToPim,
                                       {.tenant = alpha}));
    events.push_back(queue.launchTimed(sys.rank(3), 5e-3,
                                       {.label = "slow", .tenant = beta}));
    const core::Event cut = queue.launchTimed(sys.rank(1), 5e-4);
    events.push_back(cut);
    events.push_back(
        queue.launchProgram(sys.rank(0), program, {.after = cut}));
    events.push_back(queue.memcpyAsync(sys.rank(1), 256,
                                       core::CopyDirection::HostToPim,
                                       {.after = cut}));
    queue.hostIdleUntil(1e-3);
    events.push_back(queue.memcpyAsync(sys.rank(1), 256,
                                       core::CopyDirection::HostToPim));
    events.push_back(queue.launchProgram(sys.all(), program,
                                         {.tenant = alpha}));
    for (const core::Event e : events)
        out.failed.push_back(queue.eventFailed(e) ? 1 : 0);
    queue.sync();
    queue.attachFaultInjector(nullptr);

    std::ostringstream os;
    trace::writeChromeTrace(os, rec);
    out.trace = os.str();
    out.snapshot = met.snapshotString();
    return out;
}

/**
 * Golden hashes of what the observers saw for the script above. If an
 * intended change moves a span or a metric, the test prints the new
 * values to paste here.
 */
constexpr uint64_t kGoldenObservedTraceHash = 0xbc0da980bf5c1743ull;
constexpr uint64_t kGoldenObservedSnapshotHash = 0x7542af6deae5e4e2ull;

} // namespace

TEST(DrainObservers, GoldenTraceAndMetrics)
{
    const ObservedRun one = runObservedScript(1);
    // copy ok, timeout, rank death, poisoned, poisoned copy, copy to
    // the dead rank, hung launch on a partly dead system.
    EXPECT_EQ(one.failed,
              (std::vector<char>{0, 1, 1, 1, 1, 1, 1}));
    EXPECT_EQ(fnv1a(one.trace), kGoldenObservedTraceHash)
        << "trace capture changed: new hash 0x" << std::hex
        << fnv1a(one.trace);
    EXPECT_EQ(fnv1a(one.snapshot), kGoldenObservedSnapshotHash)
        << "metrics snapshot changed: new hash 0x" << std::hex
        << fnv1a(one.snapshot);
    const ObservedRun four = runObservedScript(4);
    EXPECT_EQ(four.trace, one.trace);
    EXPECT_EQ(four.snapshot, one.snapshot);
}

/**
 * @file
 * Tests for the rank-aware async command-queue runtime: DpuSet
 * addressing, sample-index spreading (incl. non-divisible tails), async
 * launch + sync() timeline composition, host/PIM overlap accounting,
 * rank-subset launches, scatter/gather transfers, event dependencies,
 * thread-count invariance of the resolved timelines, and a Fig 5(d)
 * on-device allocator program driven through the queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <vector>

#include "core/allocator_factory.hh"
#include "core/command_queue.hh"
#include "core/pim_system.hh"

using namespace pim;
using namespace pim::core;

namespace {

/** Small-MRAM DPU so tests don't pay 64 MB of backing store per DPU. */
sim::DpuConfig
smallDpuCfg()
{
    sim::DpuConfig cfg;
    cfg.mramBytes = 1u << 20;
    return cfg;
}

PimSystemConfig
smallSystem(unsigned dpus, unsigned per_rank, unsigned sample = 0)
{
    PimSystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.dpusPerRank = per_rank;
    cfg.sampleDpus = sample;
    cfg.dpuCfg = smallDpuCfg();
    return cfg;
}

/** Seconds one single-tasklet launch of @p instrs instructions takes. */
double
launchSeconds(uint64_t instrs)
{
    // One tasklet issues every pipelineIssueInterval (11) cycles.
    return smallDpuCfg().cyclesToSeconds(instrs * 11);
}

constexpr double kLaunchOverhead = 20e-6; // TransferConfig default

} // namespace

TEST(PimSystem, RankStructure)
{
    PimSystem sys(smallSystem(130, 64));
    EXPECT_EQ(sys.numRanks(), 3u);
    EXPECT_EQ(sys.rankSize(0), 64u);
    EXPECT_EQ(sys.rankSize(1), 64u);
    EXPECT_EQ(sys.rankSize(2), 2u); // ragged tail rank
    EXPECT_EQ(sys.rankOf(0), 0u);
    EXPECT_EQ(sys.rankOf(63), 0u);
    EXPECT_EQ(sys.rankOf(64), 1u);
    EXPECT_EQ(sys.rankOf(129), 2u);
}

TEST(PimSystem, SampleGlobalIndexMatchesOldStrideWhenDivisible)
{
    // 512 / 4: the historical stride mapping.
    EXPECT_EQ(sampleGlobalIndex(0, 4, 512), 0u);
    EXPECT_EQ(sampleGlobalIndex(1, 4, 512), 128u);
    EXPECT_EQ(sampleGlobalIndex(3, 4, 512), 384u);
}

TEST(PimSystem, SampleGlobalIndexSpreadsNonDivisibleTail)
{
    // 10 DPUs, 4 samples: the old stride (10/4 = 2) mapped to
    // {0,2,4,6}, never representing the tail; the even spread reaches
    // it.
    EXPECT_EQ(sampleGlobalIndex(0, 4, 10), 0u);
    EXPECT_EQ(sampleGlobalIndex(1, 4, 10), 2u);
    EXPECT_EQ(sampleGlobalIndex(2, 4, 10), 5u);
    EXPECT_EQ(sampleGlobalIndex(3, 4, 10), 7u);
    // Degenerate cases.
    EXPECT_EQ(sampleGlobalIndex(5, 0, 10), 5u);  // full system
    EXPECT_EQ(sampleGlobalIndex(7, 10, 10), 7u); // sample == all
}

TEST(PimSystem, DpuSetAddressing)
{
    PimSystem sys(smallSystem(128, 64));
    const DpuSet all = sys.all();
    EXPECT_EQ(all.size(), 128u);
    EXPECT_EQ(all.ranks().size(), 2u);
    EXPECT_EQ(all.slots().size(), 128u);

    const DpuSet r1 = sys.rank(1);
    EXPECT_EQ(r1.size(), 64u);
    ASSERT_EQ(r1.ranks().size(), 1u);
    EXPECT_EQ(r1.ranks()[0], 1u);
    EXPECT_FALSE(r1.contains(63));
    EXPECT_TRUE(r1.contains(64));

    const DpuSet dup = sys.ranks({1, 1});
    EXPECT_EQ(dup.size(), 64u); // deduplicated
    EXPECT_TRUE(dup.contains(70));
    EXPECT_FALSE(dup.contains(5));
    EXPECT_EQ(dup.ranks(), (std::vector<unsigned>{1}));
}

TEST(PimSystem, SampledSlotsSpreadAcrossRanks)
{
    PimSystem sys(smallSystem(128, 64, 2));
    EXPECT_EQ(sys.sampleCount(), 2u);
    EXPECT_EQ(sys.globalIndex(0), 0u);
    EXPECT_EQ(sys.globalIndex(1), 64u);
    EXPECT_EQ(sys.slotOf(64), 1u);
    EXPECT_EQ(sys.rank(1).slots().size(), 1u);
}

TEST(CommandQueue, AsyncLaunchResolvesOnSync)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    q.launch(sys.all(), 1,
             [](sim::Tasklet &t, unsigned) { t.execute(1000); });
    EXPECT_EQ(q.pendingCommands(), 1u);
    EXPECT_DOUBLE_EQ(q.elapsedSeconds(), 0.0); // nothing resolved yet
    const double makespan = q.sync();
    EXPECT_EQ(q.pendingCommands(), 0u);
    EXPECT_NEAR(makespan, kLaunchOverhead + launchSeconds(1000), 1e-12);
}

TEST(CommandQueue, SyncIsMakespanNotSumWhenHostOverlapsLaunch)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    q.launch(sys.all(), 1,
             [](sim::Tasklet &t, unsigned) { t.execute(100'000); });
    // Host work issued while the launch is in flight.
    const double host_sec = q.hostCompute(1, 100'000);
    const double launch_sec = launchSeconds(100'000);
    const double makespan = q.sync();
    ASSERT_GT(host_sec, 0.0);
    // Overlap: the makespan is the max of the two timelines (plus the
    // issue overhead), strictly less than their sum.
    EXPECT_NEAR(makespan,
                kLaunchOverhead + std::max(launch_sec, host_sec), 1e-12);
    EXPECT_LT(makespan, kLaunchOverhead + launch_sec + host_sec);
    // Both kinds of work really happened.
    EXPECT_NEAR(q.launchWorkSeconds(), launch_sec, 1e-12);
    EXPECT_NEAR(q.hostWorkSeconds(), host_sec, 1e-12);
}

TEST(CommandQueue, DisjointRankLaunchesOverlapSameRankSerializes)
{
    const uint64_t instrs = 200'000;
    const double d = launchSeconds(instrs);
    auto body = [](sim::Tasklet &t, unsigned) { t.execute(200'000); };

    PimSystem sys_a(smallSystem(4, 2));
    CommandQueue qa(sys_a);
    qa.launch(sys_a.rank(0), 1, body);
    qa.launch(sys_a.rank(1), 1, body);
    // Two issue overheads, but the ranks execute concurrently.
    EXPECT_NEAR(qa.sync(), 2 * kLaunchOverhead + d, 1e-12);

    PimSystem sys_b(smallSystem(4, 2));
    CommandQueue qb(sys_b);
    qb.launch(sys_b.rank(0), 1, body);
    qb.launch(sys_b.rank(0), 1, body);
    // Same rank: the second launch queues behind the first.
    EXPECT_NEAR(qb.sync(), kLaunchOverhead + 2 * d, 1e-12);
}

TEST(CommandQueue, SubsetLaunchRunsOnlyMembers)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    std::array<std::atomic<unsigned>, 4> ran{};
    q.launch(sys.rank(1), 1, [&](sim::Tasklet &t, unsigned g) {
        ran[g].fetch_add(1);
        t.execute(10);
    });
    q.sync();
    EXPECT_EQ(ran[0].load(), 0u);
    EXPECT_EQ(ran[1].load(), 0u);
    EXPECT_EQ(ran[2].load(), 1u);
    EXPECT_EQ(ran[3].load(), 1u);
}

TEST(CommandQueue, SubsetLaunchBusiesOnlyItsRanks)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    q.launch(sys.rank(0), 1,
             [](sim::Tasklet &t, unsigned) { t.execute(50'000); });
    q.launch(sys.rank(1), 1,
             [](sim::Tasklet &t, unsigned) { t.execute(10); });
    q.sync();
    // Rank 1's short launch was not delayed behind rank 0's long one.
    EXPECT_NEAR(q.rankReadySeconds(1),
                2 * kLaunchOverhead + launchSeconds(10), 1e-12);
    EXPECT_GT(q.rankReadySeconds(0), q.rankReadySeconds(1));
}

TEST(CommandQueue, HeterogeneousLaunchProgram)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    // Non-uniform shards: DPU g executes (g+1) * 1000 instructions.
    q.launchProgram(sys.all(), [](sim::Dpu &dpu, unsigned g) {
        dpu.run(1, [g](sim::Tasklet &t) { t.execute((g + 1) * 1000); });
    });
    const double makespan = q.sync();
    // Rank 0 holds DPUs {0,1}, rank 1 holds {2,3}; each rank is busy
    // for its slowest member.
    EXPECT_NEAR(q.rankReadySeconds(0),
                kLaunchOverhead + launchSeconds(2000), 1e-12);
    EXPECT_NEAR(makespan, kLaunchOverhead + launchSeconds(4000), 1e-12);
}

TEST(CommandQueue, MemcpyOccupiesBusAndRanksNotHost)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    const double sec = q.eventSeconds(
        q.memcpyAsync(sys.all(), 1 << 20, CopyDirection::HostToPim));
    EXPECT_GT(sec, 0.0);
    EXPECT_DOUBLE_EQ(q.elapsedSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(q.busReadySeconds(), sec);
    EXPECT_DOUBLE_EQ(q.rankReadySeconds(0), sec);
    EXPECT_EQ(q.transferredBytes(), uint64_t{4} << 20);
}

TEST(CommandQueue, AsyncMemcpyDoesNotBlockHost)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    q.memcpyAsync(sys.rank(0), 1 << 20, CopyDirection::HostToPim);
    const double host_sec = q.hostCompute(1, 1'000'000);
    q.sync();
    // The copy ran on the bus while the host computed.
    EXPECT_DOUBLE_EQ(q.hostWorkSeconds(), host_sec);
    EXPECT_GT(q.copyWorkSeconds(), 0.0);
    const double sum = host_sec + q.copyWorkSeconds();
    EXPECT_LT(q.elapsedSeconds(), sum);
}

TEST(CommandQueue, ScatterMemcpyMatchesUniformWhenEqual)
{
    PimSystem sys_a(smallSystem(4, 2));
    CommandQueue qa(sys_a);
    const double uniform = qa.eventSeconds(
        qa.memcpyAsync(sys_a.all(), 4096, CopyDirection::PimToHost));

    PimSystem sys_b(smallSystem(4, 2));
    CommandQueue qb(sys_b);
    const double scatter = qb.eventSeconds(qb.memcpyScatterAsync(
        sys_b.all(), {4096, 4096, 4096, 4096}, CopyDirection::PimToHost));
    EXPECT_DOUBLE_EQ(uniform, scatter);
    EXPECT_DOUBLE_EQ(qa.elapsedSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(qb.elapsedSeconds(), 0.0);
    EXPECT_EQ(qa.transferredBytes(), qb.transferredBytes());
}

TEST(CommandQueue, ScatterMemcpyCostsSummedPayload)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    const double sec = q.eventSeconds(q.memcpyScatterAsync(
        sys.all(), {1000, 2000, 3000, 4000}, CopyDirection::HostToPim));
    EXPECT_DOUBLE_EQ(
        sec, sys.transferModel().secondsTotal(10'000, 4));
    EXPECT_DOUBLE_EQ(q.elapsedSeconds(), 0.0);
    EXPECT_EQ(q.transferredBytes(), 10'000u);
}

TEST(CommandQueue, EventDependencyOrdersAcrossTimelines)
{
    PimSystem sys(smallSystem(4, 2));
    CommandQueue q(sys);
    const Event done = q.launch(
        sys.all(), 1, [](sim::Tasklet &t, unsigned) { t.execute(1000); });
    // Explicitly ordered behind the launch completion: no overlap.
    const double host_sec = q.hostCompute(1, 1'000'000, {.after = done});
    const double makespan = q.sync();
    EXPECT_NEAR(makespan,
                kLaunchOverhead + launchSeconds(1000) + host_sec, 1e-12);
}

TEST(CommandQueue, TimelineIsThreadCountInvariant)
{
    auto run = [](unsigned threads) {
        PimSystemConfig cfg = smallSystem(16, 4);
        cfg.simThreads = threads;
        PimSystem sys(cfg);
        CommandQueue q(sys);
        q.launch(sys.all(), 4, [](sim::Tasklet &t, unsigned g) {
            t.execute(100 + g * 7 + t.id());
            t.dmaRead(0, 64);
        });
        q.hostCompute(3, 12345);
        q.memcpyAsync(sys.rank(1), 4096, CopyDirection::PimToHost);
        q.launch(sys.rank(2), 2,
                 [](sim::Tasklet &t, unsigned) { t.execute(77); });
        return q.sync();
    };
    const double s1 = run(1);
    const double s8 = run(8);
    EXPECT_EQ(s1, s8); // bit-identical timeline
    EXPECT_GT(s1, 0.0);
}

TEST(CommandQueue, ResetTimelineKeepsDpuState)
{
    PimSystem sys(smallSystem(2, 2));
    CommandQueue q(sys);
    q.launch(sys.all(), 1, [](sim::Tasklet &t, unsigned) {
        t.execute(500);
    });
    q.memcpyAsync(sys.all(), 1024, CopyDirection::HostToPim);
    EXPECT_GT(q.sync(), 0.0);
    q.resetTimeline();
    EXPECT_DOUBLE_EQ(q.elapsedSeconds(), 0.0);
    EXPECT_DOUBLE_EQ(q.busReadySeconds(), 0.0);
    EXPECT_EQ(q.transferredBytes(), 0u);
    EXPECT_DOUBLE_EQ(q.launchWorkSeconds(), 0.0);
    // DPU state (last run) survives the timeline reset.
    EXPECT_EQ(sys.dpu(0).lastElapsedCycles(), 500u * 11u);
}

TEST(CommandQueue, Fig5dStyleProgramWithAllocator)
{
    // The PIM-Metadata/PIM-Executed pseudo-program: one launch runs
    // initAllocator, a second launch allocates on-device; the only
    // host<->PIM traffic is the launches themselves.
    PimSystemConfig cfg;
    cfg.numDpus = 64;
    cfg.sampleDpus = 2;
    PimSystem sys(cfg);
    CommandQueue q(sys);
    std::vector<std::unique_ptr<alloc::Allocator>> allocators;
    for (unsigned i = 0; i < sys.sampleCount(); ++i) {
        AllocatorOverrides ov;
        ov.numTasklets = 4;
        ov.heapBytes = 1u << 20;
        allocators.push_back(
            makeAllocator(sys.dpu(i), AllocatorKind::PimMallocSw, ov));
    }
    q.launch(sys.all(), 1, [&](sim::Tasklet &t, unsigned g) {
        allocators[sys.slotOf(g)]->init(t);
    });
    q.sync();
    q.launch(sys.all(), 4, [&](sim::Tasklet &t, unsigned g) {
        alloc::Allocator &a = *allocators[sys.slotOf(g)];
        for (int i = 0; i < 16; ++i)
            ASSERT_NE(a.malloc(t, 64), sim::kNullAddr);
    });
    q.sync();
    EXPECT_EQ(q.transferredBytes(), 0u);
    for (const auto &a : allocators)
        EXPECT_EQ(a->stats().mallocCalls, 4u * 16u);
}

TEST(CommandQueue, UnsampledRanksChargedRepresentativeMakespan)
{
    // 128 DPUs in 2 ranks but only one materialized DPU (global 0,
    // rank 0): a whole-system launch must still busy rank 1 for the
    // representative duration.
    PimSystem sys(smallSystem(128, 64, 1));
    CommandQueue q(sys);
    q.launch(sys.all(), 1,
             [](sim::Tasklet &t, unsigned) { t.execute(9000); });
    const double makespan = q.sync();
    EXPECT_NEAR(q.rankReadySeconds(1),
                kLaunchOverhead + launchSeconds(9000), 1e-12);
    EXPECT_NEAR(makespan, kLaunchOverhead + launchSeconds(9000), 1e-12);
}

TEST(PimSystem, SamplePerRankCoversEveryRankOfRaggedSystems)
{
    // 100 DPUs in 64-DPU ranks: even-spread sampling with 2 samples
    // lands both in rank 0 ({0, 50}); per-rank sampling must pick the
    // first DPU of each rank instead.
    PimSystemConfig cfg = smallSystem(100, 64);
    cfg.samplePerRank = true;
    PimSystem sys(cfg);
    ASSERT_EQ(sys.sampleCount(), 2u);
    EXPECT_EQ(sys.globalIndex(0), 0u);
    EXPECT_EQ(sys.globalIndex(1), 64u);
    EXPECT_EQ(sys.rank(1).slots().size(), 1u);

    // A launch on the tail rank is really simulated, not costed zero.
    CommandQueue q(sys);
    q.launch(sys.rank(1), 1,
             [](sim::Tasklet &t, unsigned) { t.execute(5000); });
    q.sync();
    EXPECT_NEAR(q.rankReadySeconds(1),
                kLaunchOverhead + launchSeconds(5000), 1e-12);
}

TEST(CommandQueue, ResetTimelineRebasesEarlierEvents)
{
    PimSystem sys(smallSystem(2, 2));
    CommandQueue q(sys);
    const Event e = q.launch(
        sys.all(), 1, [](sim::Tasklet &t, unsigned) { t.execute(9000); });
    q.sync();
    q.resetTimeline();
    // A pre-reset event must not leak its old absolute completion time
    // into the new epoch.
    const double host_sec = q.hostCompute(1, 1000, {.after = e});
    EXPECT_DOUBLE_EQ(q.sync(), host_sec);
}

TEST(CommandQueue, HostIdleUntilAdvancesButNeverRewinds)
{
    PimSystem sys(smallSystem(2, 2));
    CommandQueue q(sys);
    q.hostIdleUntil(1.5);
    EXPECT_DOUBLE_EQ(q.sync(), 1.5);
    q.hostIdleUntil(1.0); // already past: no-op
    EXPECT_DOUBLE_EQ(q.sync(), 1.5);
    EXPECT_DOUBLE_EQ(q.hostWorkSeconds(), 0.0); // idling is not work
}

TEST(PimSystem, ContiguousAndArbitraryRankSets)
{
    PimSystem sys(smallSystem(512, 64)); // 8 ranks
    const DpuSet head = sys.ranks({0, 1});
    EXPECT_EQ(head.size(), 128u);
    EXPECT_EQ(head.ranks(), (std::vector<unsigned>{0, 1}));
    EXPECT_TRUE(head.contains(0));
    EXPECT_TRUE(head.contains(127));
    EXPECT_FALSE(head.contains(128));

    const DpuSet odd = sys.ranks({5, 3, 5, 1});
    EXPECT_EQ(odd.ranks(), (std::vector<unsigned>{1, 3, 5}));
    EXPECT_EQ(odd.size(), 192u);
    EXPECT_TRUE(odd.contains(64));
    EXPECT_FALSE(odd.contains(0));
    EXPECT_FALSE(odd.contains(128)); // rank 2
}

TEST(PimSystem, RankSetCoversRaggedTail)
{
    PimSystem sys(smallSystem(10, 4)); // ranks of 4, 4, 2
    const DpuSet tail = sys.ranks({2});
    EXPECT_EQ(tail.size(), 2u);
    EXPECT_TRUE(tail.contains(9));
    EXPECT_EQ(sys.ranks({0, 1, 2}).size(), 10u);
}

TEST(PimSystem, PartitionRanksRespectsFractionAndClamps)
{
    PimSystem sys(smallSystem(512, 64, 40));
    const DpuSet all = sys.all();
    const auto [pre, dec] = all.partitionRanks(0.25);
    EXPECT_EQ(pre.ranks(), (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(dec.ranks(), (std::vector<unsigned>{2, 3, 4, 5, 6, 7}));
    EXPECT_EQ(pre.size() + dec.size(), sys.numDpus());
    for (unsigned g = 0; g < sys.numDpus(); g += 37)
        EXPECT_NE(pre.contains(g), dec.contains(g)) << g;
    // Every materialized slot lands in exactly one side.
    EXPECT_EQ(pre.slots().size() + dec.slots().size(),
              static_cast<size_t>(sys.sampleCount()));
    for (const unsigned slot : pre.slots())
        EXPECT_FALSE(dec.contains(sys.globalIndex(slot))) << slot;
    // Both partitions stay non-empty at the extremes.
    EXPECT_EQ(all.partitionRanks(0.0).first.ranks().size(), 1u);
    EXPECT_EQ(all.partitionRanks(1.0).first.ranks().size(), 7u);
}

TEST(CommandQueue, LaunchTimedOccupiesExactlyTheTargetRanks)
{
    PimSystem sys(smallSystem(512, 64));
    CommandQueue q(sys);
    const Event e = q.launchTimed(sys.ranks({0, 1}), 2e-3);
    EXPECT_NEAR(q.eventSeconds(e), kLaunchOverhead + 2e-3, 1e-12);
    EXPECT_NEAR(q.rankReadySeconds(0), kLaunchOverhead + 2e-3, 1e-12);
    EXPECT_NEAR(q.rankReadySeconds(1), kLaunchOverhead + 2e-3, 1e-12);
    EXPECT_DOUBLE_EQ(q.rankReadySeconds(2), 0.0);
    // Back-to-back timed launches on disjoint partitions overlap.
    q.launchTimed(sys.ranks({2, 3, 4, 5, 6, 7}), 5e-3);
    const double makespan = q.sync();
    EXPECT_NEAR(makespan, 2 * kLaunchOverhead + 5e-3, 1e-12);
}

TEST(CommandQueue, BufferedScatterDoesNotStallTargetRanks)
{
    PimSystem sys(smallSystem(512, 64));
    CommandQueue q(sys);
    const DpuSet dec = sys.ranks({4, 5, 6, 7});
    const Event attn = q.launchTimed(dec, 10e-3);
    // A double-buffered append lands while the ranks keep computing...
    const Event ship = q.memcpyScatterBufferedAsync(
        dec, std::vector<uint64_t>(dec.size(), 4096),
        CopyDirection::HostToPim);
    const double ship_end = q.eventSeconds(ship);
    EXPECT_LT(ship_end, q.eventSeconds(attn));
    EXPECT_NEAR(q.rankReadySeconds(4), kLaunchOverhead + 10e-3, 1e-12);
    // ...whereas a rank-occupying scatter serializes behind the launch.
    const Event full = q.memcpyScatterAsync(
        dec, std::vector<uint64_t>(dec.size(), 4096),
        CopyDirection::HostToPim);
    EXPECT_GT(q.eventSeconds(full), q.eventSeconds(attn));
    EXPECT_NEAR(q.rankReadySeconds(4), q.eventSeconds(full), 1e-12);
}

TEST(CommandQueue, EventSecondsOrdersDependentTimedLaunches)
{
    PimSystem sys(smallSystem(512, 64));
    CommandQueue q(sys);
    const DpuSet a = sys.ranks({0});
    const DpuSet b = sys.ranks({1});
    const Event first = q.launchTimed(a, 1e-3);
    // Dependent launch on a different rank starts only after `first`.
    const Event second = q.launchTimed(b, 1e-3, {.after = first});
    EXPECT_NEAR(q.eventSeconds(second),
                q.eventSeconds(first) + 1e-3, 1e-12);
    // eventSeconds drains but does not join: the host is still at the
    // issue point, not the makespan.
    EXPECT_LT(q.elapsedSeconds(), q.eventSeconds(second));
}

namespace {

/** Check a partition's invariants against the set that produced it. */
void
expectPartitionMatchesSet(const PimSystem &sys, const DpuSet &set)
{
    const SlotPartition &p = *set.partition();
    ASSERT_EQ(p.rankSlotBegin.size(), p.ranks.size() + 1);
    EXPECT_EQ(p.rankSlotBegin.front(), 0u);
    EXPECT_EQ(p.rankSlotBegin.back(), p.slots.size());
    for (size_t ri = 0; ri < p.ranks.size(); ++ri) {
        const unsigned jb = p.rankSlotBegin[ri];
        const unsigned je = p.rankSlotBegin[ri + 1];
        EXPECT_LE(jb, je);
        // Every slot in rank ri's run really belongs to rank ri.
        for (unsigned j = jb; j < je; ++j)
            EXPECT_EQ(sys.rankOf(sys.globalIndex(p.slots[j])),
                      p.ranks[ri]);
    }
    // Every sample slot of a member rank is in the set, in order.
    EXPECT_TRUE(std::is_sorted(p.slots.begin(), p.slots.end()));
    size_t members = 0;
    for (unsigned s = 0; s < sys.sampleCount(); ++s) {
        if (!std::binary_search(p.ranks.begin(), p.ranks.end(),
                                sys.rankOf(sys.globalIndex(s))))
            continue;
        ++members;
        EXPECT_TRUE(std::binary_search(p.slots.begin(), p.slots.end(), s))
            << s;
    }
    EXPECT_EQ(p.slots.size(), members);
}

} // namespace

TEST(SlotPartitionCache, RunsCoverRaggedTailAndRankSets)
{
    // 130 DPUs over 64-wide ranks: rank 2 is a ragged 2-DPU tail.
    // Sampling (16 of 130) exercises non-contiguous slot→global maps.
    PimSystem sys(smallSystem(130, 64, 16));
    expectPartitionMatchesSet(sys, sys.all());
    expectPartitionMatchesSet(sys, sys.rank(2));
    expectPartitionMatchesSet(sys, sys.ranks({1, 2}));
    expectPartitionMatchesSet(sys, sys.ranks({0, 2}));
    // Unsampled full-population system for comparison.
    PimSystem full(smallSystem(130, 64));
    expectPartitionMatchesSet(full, full.all());
    expectPartitionMatchesSet(full, full.ranks({0, 2}));
}

TEST(SlotPartitionCache, SharedByCopiesAndFullSystem)
{
    PimSystem sys(smallSystem(256, 64, 32));
    const DpuSet sub = sys.ranks({0, 1});
    // Repeated partition() calls and copies of one set share one
    // instance.
    EXPECT_EQ(sub.partition().get(), sub.partition().get());
    const DpuSet copy = sub;
    EXPECT_EQ(copy.partition().get(), sub.partition().get());
    // Every full-system set shares the system's one partition.
    EXPECT_EQ(sys.all().partition().get(), sys.all().partition().get());
    // Distinct sets over the same ranks agree on content.
    const DpuSet twin = sys.ranks({0, 1});
    EXPECT_NE(sub.partition().get(), twin.partition().get());
    EXPECT_EQ(sub.partition()->slots, twin.partition()->slots);
}

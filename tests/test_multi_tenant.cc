/**
 * @file
 * Tests for the multi-tenant scheduler layer of the command-queue
 * runtime: eventSeconds fail-fast on never-enqueued handles, launch
 * fail-fast on empty bodies, RankScheduler acquire/release/contention,
 * per-tenant host lanes, DpuSet partition helpers, and per-tenant
 * occupancy attribution and thread-count determinism of a co-tenant
 * run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "core/rank_scheduler.hh"
#include "sim/dpu.hh"
#include "trace/occupancy.hh"
#include "trace/trace.hh"

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

} // namespace

// ---------------------------------------------------------------------
// eventSeconds fail-fast
// ---------------------------------------------------------------------

TEST(EventSecondsDeathTest, FatalOnDefaultAndNeverEnqueuedHandles)
{
    PimSystem sys(smallSystem(64, 64));
    CommandQueue q(sys);
    EXPECT_DEATH(q.eventSeconds(kNoEvent), "default Event handle");
    // A default-constructed struct member initialized to 0 is the other
    // classic stale handle: nothing was ever enqueued here.
    EXPECT_DEATH(q.eventSeconds(0), "never enqueued");
    EXPECT_DEATH(q.eventSeconds(42), "never enqueued");
}

// An empty body is refused when it is enqueued, not when a tasklet
// calls it mid-drain, and a launch that would run nothing is never
// charged.
TEST(LaunchBodyDeathTest, EmptyProgramIsFatalAtEnqueue)
{
    PimSystem sys(smallSystem(64, 64, 1));
    CommandQueue q(sys);
    EXPECT_DEATH(q.launchProgram(sys.all(), nullptr),
                 "empty launch program");
}

TEST(LaunchBodyDeathTest, EmptyTaskletBodyIsFatalAtEnqueue)
{
    PimSystem sys(smallSystem(64, 64, 1));
    CommandQueue q(sys);
    EXPECT_DEATH(q.launch(sys.all(), 4, {}), "empty launch body");
}

// ---------------------------------------------------------------------
// RankScheduler
// ---------------------------------------------------------------------

TEST(RankScheduler, GrantsLowestFreeRanksDeterministically)
{
    PimSystem sys(smallSystem(256, 64)); // 4 ranks
    RankScheduler sched(sys);
    EXPECT_EQ(sched.numRanks(), 4u);
    EXPECT_EQ(sched.freeRankCount(), 4u);

    const DpuSet serving = sched.acquireRanks(2, "serving");
    EXPECT_EQ(serving.ranks(), (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(serving.size(), 128u);
    EXPECT_EQ(sched.ownerOf(0), "serving");
    EXPECT_EQ(sched.ownerOf(1), "serving");
    EXPECT_EQ(sched.freeRankCount(), 2u);

    // No partial grants: 3 free ranks needed, only 2 left.
    EXPECT_FALSE(sched.tryAcquireRanks(3, "graph").has_value());
    EXPECT_EQ(sched.freeRankCount(), 2u);

    const DpuSet graph = sched.acquireRanks(2, "graph");
    EXPECT_EQ(graph.ranks(), (std::vector<unsigned>{2, 3}));
    EXPECT_EQ(sched.freeRankCount(), 0u);

    // Releasing returns the ranks to the pool; the next grant reuses
    // the lowest-numbered free ranks.
    EXPECT_EQ(sched.releaseAll("serving"), 2u);
    EXPECT_EQ(sched.freeRankCount(), 2u);
    EXPECT_EQ(sched.ownerOf(0), "");
    const DpuSet third = sched.acquireRanks(1, "third");
    EXPECT_EQ(third.ranks(), (std::vector<unsigned>{0}));
    EXPECT_EQ(sched.ownerOf(0), "third");
}

TEST(RankSchedulerDeathTest, ContentionAndMisuseAreFatal)
{
    PimSystem sys(smallSystem(256, 64));
    RankScheduler sched(sys);
    sched.acquireRanks(3, "serving");
    EXPECT_DEATH(sched.acquireRanks(2, "greedy"), "asked for");
}

// ---------------------------------------------------------------------
// Tenant host lanes
// ---------------------------------------------------------------------

TEST(Tenants, IndependentHostIssueTimelines)
{
    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const TenantId serving = q.addTenant("serving");
    const TenantId graph = q.addTenant("graph");
    EXPECT_EQ(q.tenantCount(), 3u);

    q.hostBusy(2e-3, {.label = "serving work", .tenant = serving});
    q.hostBusy(5e-3, {.label = "graph work", .tenant = graph});
    const Event probe = q.launchTimed(sys.rank(0), 1e-6); // tenant 0

    // Force a drain without joining the timelines: each tenant's host
    // lane advanced only by its own commands.
    q.eventSeconds(probe);
    EXPECT_DOUBLE_EQ(q.hostSeconds(serving), 2e-3);
    EXPECT_DOUBLE_EQ(q.hostSeconds(graph), 5e-3);
    EXPECT_GT(q.hostSeconds(kDefaultTenant), 0.0); // launch issue
    EXPECT_LT(q.hostSeconds(kDefaultTenant), 2e-3);

    // sync() joins every lane to the makespan.
    const double m = q.sync();
    EXPECT_DOUBLE_EQ(q.hostSeconds(serving), m);
    EXPECT_DOUBLE_EQ(q.hostSeconds(graph), m);
}

// ---------------------------------------------------------------------
// DpuSet partition helpers
// ---------------------------------------------------------------------

TEST(DpuSet, IndexOfAndMemberAtRoundTrip)
{
    PimSystem sys(smallSystem(256, 64));
    const DpuSet all = sys.all();
    EXPECT_EQ(all.indexOf(70), 70u);
    EXPECT_EQ(all.memberAt(70), 70u);

    const DpuSet r1 = sys.rank(1);
    EXPECT_EQ(r1.indexOf(64), 0u);
    EXPECT_EQ(r1.indexOf(127), 63u);
    EXPECT_EQ(r1.memberAt(5), 69u);

    const DpuSet rs = sys.ranks({1, 3});
    EXPECT_EQ(rs.size(), 128u);
    EXPECT_EQ(rs.indexOf(64), 0u);
    EXPECT_EQ(rs.indexOf(192), 64u);
    EXPECT_EQ(rs.memberAt(64), 192u);

    // A short last rank in a sampled system: 130 DPUs over 64-wide
    // ranks (rank 2 holds 2 DPUs), 16 of them materialized. Walk every
    // DPU in ascending order; members must number 0, 1, 2, ...
    PimSystem ragged(smallSystem(130, 64, 16));
    const std::vector<std::pair<DpuSet, std::vector<unsigned>>> cases = {
        {ragged.all(), {0, 1, 2}},
        {ragged.rank(0), {0}},
        {ragged.rank(2), {2}},
        {ragged.ranks({0, 2}), {0, 2}},
        {ragged.ranks({1, 2}), {1, 2}},
    };
    for (const auto &[set, want_ranks] : cases) {
        EXPECT_EQ(set.ranks(), want_ranks);
        unsigned members = 0;
        for (unsigned g = 0; g < ragged.numDpus(); ++g) {
            const bool member =
                std::find(want_ranks.begin(), want_ranks.end(),
                          ragged.rankOf(g))
                != want_ranks.end();
            EXPECT_EQ(set.contains(g), member) << g;
            if (!member)
                continue;
            EXPECT_EQ(set.memberAt(members), g);
            EXPECT_EQ(set.indexOf(g), members) << g;
            ++members;
        }
        EXPECT_EQ(members, set.size());
    }
}

TEST(DpuSet, PartitionRanksSplitsTheSetsOwnRanks)
{
    PimSystem sys(smallSystem(256, 64));
    const DpuSet all = sys.all();

    const auto [pre, dec] = all.partitionRanks(0.5);
    EXPECT_EQ(pre.ranks(), (std::vector<unsigned>{0, 1}));
    EXPECT_EQ(dec.ranks(), (std::vector<unsigned>{2, 3}));

    // Clamped to [1, n-1]: both partitions always non-empty.
    EXPECT_EQ(all.partitionRanks(0.0).first.ranks().size(), 1u);
    EXPECT_EQ(all.partitionRanks(1.0).second.ranks().size(), 1u);

    // Partitioning a non-contiguous grant splits its own rank list.
    const auto [g1, g2] = sys.ranks({1, 3}).partitionRanks(0.5);
    EXPECT_EQ(g1.ranks(), (std::vector<unsigned>{1}));
    EXPECT_EQ(g2.ranks(), (std::vector<unsigned>{3}));
}

// ---------------------------------------------------------------------
// Co-tenant occupancy attribution and determinism
// ---------------------------------------------------------------------

TEST(Tenants, CoTenantOccupancyAttribution)
{
    PimSystem sys(smallSystem(256, 64));
    CommandQueue q(sys);
    trace::Recorder rec;
    q.attachRecorder(&rec);

    const TenantId serving = q.addTenant("serving");
    const TenantId graph = q.addTenant("graph");
    RankScheduler sched(sys);
    const DpuSet sset = sched.acquireRanks(2, "serving");
    const DpuSet gset = sched.acquireRanks(2, "graph");

    q.launchTimed(sset, 4e-3, {.label = "decode", .tenant = serving});
    const Event up = q.memcpyAsync(gset, 1u << 16,
                                   CopyDirection::HostToPim,
                                   {.label = "updates",
                                    .tenant = graph});
    q.launchTimed(gset, 2e-3,
                  {.after = up, .label = "update", .tenant = graph});
    q.sync();

    const auto rep = trace::analyzeOccupancy(rec);
    ASSERT_GE(rep.tenants.size(), 2u);
    const auto find = [&](const std::string &name)
        -> const trace::TenantOccupancy * {
        for (const auto &t : rep.tenants)
            if (t.name == name)
                return &t;
        return nullptr;
    };
    const auto *socc = find("serving");
    const auto *gocc = find("graph");
    ASSERT_NE(socc, nullptr);
    ASSERT_NE(gocc, nullptr);
    // Each tenant held its own ranks: 2 rank lanes for ~the full
    // makespan on the serving side, the update launch on the graph
    // side.
    EXPECT_GT(socc->rankBusySeconds, 2 * 4e-3 * 0.99);
    EXPECT_GT(gocc->rankBusySeconds, 2 * 2e-3 * 0.99);
    EXPECT_GT(socc->busyFraction, 0.0);
    EXPECT_GT(gocc->busyFraction, 0.0);
}

TEST(Tenants, CoTenantRunIsThreadCountInvariant)
{
    const auto run = [](unsigned threads) {
        PimSystemConfig cfg = smallSystem(256, 64, 8);
        cfg.simThreads = threads;
        PimSystem sys(cfg);
        CommandQueue q(sys);
        const TenantId serving = q.addTenant("serving");
        const TenantId graph = q.addTenant("graph");
        RankScheduler sched(sys);
        const DpuSet sset = sched.acquireRanks(2, "serving");
        const DpuSet gset = sched.acquireRanks(2, "graph");

        std::vector<Event> lasts;
        Event last_s = kNoEvent, last_g = kNoEvent;
        for (int i = 0; i < 3; ++i) {
            last_s = q.launchProgram(
                sset,
                [](sim::Dpu &dpu, unsigned idx) {
                    dpu.run(4, [idx](sim::Tasklet &t) {
                        t.execute(50 + (idx + t.id()) % 7);
                    });
                },
                {.after = last_s, .label = "serve", .tenant = serving});
            const Event up = q.memcpyScatterAsync(
                gset, std::vector<uint64_t>(gset.size(), 4096),
                CopyDirection::HostToPim,
                {.after = last_g, .label = "ship", .tenant = graph});
            last_g = q.launchProgram(
                gset,
                [](sim::Dpu &dpu, unsigned) {
                    dpu.run(8, [](sim::Tasklet &t) { t.execute(40); });
                },
                {.after = up, .label = "update", .tenant = graph});
            lasts.push_back(last_s);
            lasts.push_back(last_g);
        }
        std::vector<double> out;
        for (const Event e : lasts)
            out.push_back(q.eventSeconds(e));
        out.push_back(q.hostSeconds(serving));
        out.push_back(q.hostSeconds(graph));
        out.push_back(q.busReadySeconds());
        out.push_back(q.sync());
        return out;
    };
    const auto one = run(1);
    EXPECT_EQ(one, run(3));
    EXPECT_EQ(one, run(7));
}

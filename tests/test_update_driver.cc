/**
 * @file
 * Tests for the dynamic-graph-update experiment driver (Fig 17): result
 * plumbing, determinism, and the paper's qualitative orderings on a
 * scaled-down dataset.
 */

#include <gtest/gtest.h>

#include "core/pim_system.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::workloads::graph;

namespace {

GraphUpdateConfig
smallCfg(StructureKind s, core::AllocatorKind a)
{
    GraphUpdateConfig cfg;
    cfg.structure = s;
    cfg.allocator = a;
    cfg.numDpus = 8;
    cfg.sampleDpus = 1;
    cfg.tasklets = 8;
    cfg.gen.numNodes = 2000;
    cfg.gen.numEdges = 9000;
    cfg.gen.seed = 5;
    return cfg;
}

} // namespace

TEST(UpdateDriver, ProducesThroughputAndBreakdown)
{
    const auto r = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(r.updateSeconds, 0.0);
    EXPECT_GT(r.millionEdgesPerSec, 0.0);
    EXPECT_EQ(r.updateEdgesTotal, 3000u);
    EXPECT_GT(r.breakdown.total(), 0u);
    EXPECT_GT(r.allocStats.mallocCalls, 0u);
    EXPECT_GT(r.metadataBytes, 0u);
    EXPECT_GT(r.fragmentation, 0.0);
}

TEST(UpdateDriver, OneRoundMatchesTheSingleLaunchFingerprints)
{
    // A one-round run is a build launch plus one update launch. These
    // integers were produced when build and update shared one launch;
    // splitting them must not move a cycle or a byte. The sampleDpus = 0
    // rows simulate every shard of the system, so they also pin how the
    // dataset is dealt into shards.
    struct Golden
    {
        StructureKind structure;
        unsigned sampleDpus;
        uint64_t maxCycles;
        uint64_t taskletCycles;
        uint64_t trafficBytes;
        uint64_t mallocs;
    };
    const Golden goldens[] = {
        {StructureKind::StaticCsr, 1, 1036462, 8291696, 1287936, 0},
        {StructureKind::LinkedList, 1, 150658, 1205264, 10248, 320},
        {StructureKind::VarArray, 1, 21744, 173952, 11392, 25},
        {StructureKind::LinkedList, 0, 210660, 10278224, 96216, 3000},
        {StructureKind::VarArray, 0, 28288, 1253184, 108160, 239},
    };
    for (const Golden &g : goldens) {
        GraphUpdateConfig cfg =
            smallCfg(g.structure, core::AllocatorKind::PimMallocHwSw);
        cfg.sampleDpus = g.sampleDpus;
        const auto r = runGraphUpdate(cfg);
        EXPECT_EQ(r.updateSeconds,
                  sim::DpuConfig{}.cyclesToSeconds(g.maxCycles));
        EXPECT_EQ(r.breakdown.total(), g.taskletCycles);
        EXPECT_EQ(r.traffic.totalBytes(), g.trafficBytes);
        EXPECT_EQ(r.allocStats.mallocCalls, g.mallocs);
        // The round boundary adds one launch overhead to the wall time.
        EXPECT_GT(r.wallSeconds, r.updateSeconds);
    }
}

TEST(UpdateDriver, PartitionShardsOverItsOwnDpus)
{
    // A 12-DPU system in ranks of 4 with the task on ranks {1, 2}: the
    // dataset is sharded over the partition's 8 DPUs by their dense
    // indexOf order, so shard j runs on global DPU j + 4. The integers
    // are those of the 8-DPU, sampleDpus = 0 LinkedList fingerprint.
    core::PimSystemConfig scfg;
    scfg.numDpus = 12;
    scfg.dpusPerRank = 4;
    core::PimSystem sys(scfg);
    core::CommandQueue queue(sys);
    core::Session session(queue);
    const GraphUpdateConfig cfg = smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocHwSw);
    GraphUpdateTask task(cfg, queue, sys.ranks({1, 2}));
    session.add("graph", task);
    session.run();
    const auto r = task.result();
    EXPECT_EQ(r.updateEdgesTotal, 3000u);
    EXPECT_EQ(r.updateSeconds, sim::DpuConfig{}.cyclesToSeconds(210660));
    EXPECT_EQ(r.breakdown.total(), 10278224u);
    EXPECT_EQ(r.traffic.totalBytes(), 96216u);
    EXPECT_EQ(r.allocStats.mallocCalls, 3000u);
}

TEST(UpdateDriver, StaticCsrNeedsNoAllocator)
{
    const auto r = runGraphUpdate(smallCfg(
        StructureKind::StaticCsr, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(r.updateSeconds, 0.0);
    EXPECT_EQ(r.allocStats.mallocCalls, 0u);
}

TEST(UpdateDriver, Deterministic)
{
    const auto cfg = smallCfg(StructureKind::VarArray,
                              core::AllocatorKind::PimMallocHwSw);
    const auto a = runGraphUpdate(cfg);
    const auto b = runGraphUpdate(cfg);
    EXPECT_EQ(a.updateSeconds, b.updateSeconds);
    EXPECT_EQ(a.allocStats.mallocCalls, b.allocStats.mallocCalls);
    EXPECT_EQ(a.traffic.totalBytes(), b.traffic.totalBytes());
}

TEST(UpdateDriver, PimMallocBeatsStrawMan)
{
    // Fig 17(a): dynamic structures on PIM-malloc outperform the same
    // structures on the straw-man allocator.
    const auto straw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::StrawMan));
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(sw.millionEdgesPerSec, straw.millionEdgesPerSec);
}

TEST(UpdateDriver, HwSwReducesMetadataTraffic)
{
    // Fig 17(d): the hardware buddy cache moves less metadata than the
    // coarse software buffer.
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    const auto hw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocHwSw));
    EXPECT_LT(hw.traffic.metadataBytes(), sw.traffic.metadataBytes());
}

TEST(UpdateDriver, StrawManBusyWaitsMoreThanPimMalloc)
{
    // Fig 17(a) breakdown: the straw-man's single mutex causes heavy
    // busy-waiting; the thread cache removes most of it.
    const auto straw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::StrawMan));
    const auto sw = runGraphUpdate(smallCfg(
        StructureKind::LinkedList, core::AllocatorKind::PimMallocSw));
    EXPECT_GT(straw.breakdown.fraction(sim::CycleKind::BusyWait),
              sw.breakdown.fraction(sim::CycleKind::BusyWait));
}

TEST(UpdateDriver, TraceEventsRecorded)
{
    auto cfg = smallCfg(StructureKind::LinkedList,
                        core::AllocatorKind::PimMallocSw);
    cfg.traceEvents = true;
    const auto r = runGraphUpdate(cfg);
    EXPECT_EQ(r.allocStats.events.size(), r.allocStats.mallocCalls);
}

TEST(UpdateDriver, MaxUpdateEdgesTruncates)
{
    auto cfg = smallCfg(StructureKind::LinkedList,
                        core::AllocatorKind::PimMallocSw);
    cfg.maxUpdateEdges = 100;
    const auto r = runGraphUpdate(cfg);
    EXPECT_EQ(r.updateEdgesTotal, 100u);
}

TEST(UpdateDriver, Fig3StaticSlowdownGrowsWithGraphSize)
{
    // Fig 3(c): with a fixed number of new edges, static CSR update
    // time grows with the pre-update graph while the dynamic structure
    // stays flat.
    auto seconds = [](StructureKind s, uint32_t scale) {
        GraphUpdateConfig cfg =
            smallCfg(s, core::AllocatorKind::PimMallocSw);
        cfg.gen.numEdges = 3000u * scale;
        cfg.gen.numNodes = 1000u * scale;
        cfg.maxUpdateEdges = 200;
        return runGraphUpdate(cfg).updateSeconds;
    };
    const double static_small = seconds(StructureKind::StaticCsr, 1);
    const double static_large = seconds(StructureKind::StaticCsr, 4);
    const double dyn_small = seconds(StructureKind::LinkedList, 1);
    const double dyn_large = seconds(StructureKind::LinkedList, 4);
    EXPECT_GT(static_large, 1.5 * static_small);
    EXPECT_LT(dyn_large, 1.5 * dyn_small + 1e-6);
}

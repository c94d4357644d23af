/**
 * @file
 * graph-ingest: the Fig 17 set-up, the paper's flagship application,
 * which uses every layer in realistic proportion. A loc-gowalla-sized
 * seeded synthetic graph is sharded over 512 materialized DPUs with 16
 * tasklets each (LinkedList + PIM-malloc-HW/SW); a GraphUpdateTask over
 * all ranks ships each round's edges and inserts them in 16
 * back-to-back rounds, driven by step() until done(). Heavy per-DPU
 * allocator and event-loop work runs on skewed power-law shards spread
 * over the worker pool, in few, long launches.
 */

#include <memory>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "spans.hh"
#include "util/rng.hh"
#include "workloads.hh"
#include "workloads/graph/update_driver.hh"

namespace perfbench {

using namespace pim;
using workloads::graph::GraphUpdateConfig;
using workloads::graph::GraphUpdateResult;
using workloads::graph::GraphUpdateTask;

namespace {

constexpr unsigned kDpus = 512;
constexpr unsigned kTasklets = 16;
constexpr unsigned kRounds = 16;
constexpr core::AllocatorKind kAllocator = core::AllocatorKind::PimMallocHwSw;

} // namespace

GraphIngestInputs
makeGraphIngestInputs(uint64_t seed)
{
    util::Rng rng = util::Rng(seed).stream("graph-ingest");
    GraphIngestInputs in;
    in.graph.gen.numNodes = 196591; // loc-gowalla
    in.graph.gen.numEdges = 950327;
    in.graph.gen.seed = rng.next();
    in.graph.splitSeed = rng.next();
    return in;
}

IterResult
runGraphIngest(const GraphIngestInputs &in, const IterConfig &cfg)
{
    IterResult res;
    Tracer *const tr = cfg.tracer;

    const Clock::time_point t_setup = Clock::now();
    core::PimSystemConfig scfg;
    scfg.numDpus = kDpus;
    scfg.sampleDpus = 0; // every DPU materialized
    scfg.simThreads = cfg.threads;
    std::unique_ptr<core::PimSystem> sys;
    {
        Span s(tr, "core.PimSystem", Layer::Core);
        sys = std::make_unique<core::PimSystem>(scfg);
    }
    res.layer["core.system_setup_s"] = secondsSince(t_setup);
    core::CommandQueue queue(*sys);
    if (cfg.metrics != nullptr)
        queue.attachMetrics(cfg.metrics);
    if (cfg.recorder != nullptr)
        queue.attachRecorder(cfg.recorder);

    GraphUpdateConfig gcfg;
    gcfg.structure = workloads::graph::StructureKind::LinkedList;
    gcfg.allocator = kAllocator;
    gcfg.numDpus = kDpus;
    gcfg.tasklets = kTasklets;
    gcfg.gen = in.graph.gen;
    gcfg.seed = in.graph.splitSeed;
    gcfg.updateRounds = kRounds;
    gcfg.shipUpdates = true;
    gcfg.simThreads = cfg.threads;
    gcfg.metrics = cfg.metrics;
    std::unique_ptr<GraphUpdateTask> task;
    {
        Span s(tr, "graph.GraphUpdateTask", Layer::Graph);
        task = std::make_unique<GraphUpdateTask>(gcfg, queue, sys->all());
    }
    // The build launch is the fresh queue's first command (event 0):
    // resolving it drains the build here, outside the measured region.
    const Clock::time_point t_build = Clock::now();
    {
        Span s(tr, "core.eventSeconds", Layer::Core);
        queue.eventSeconds(0);
    }
    res.layer["graph.build_s"] = secondsSince(t_build);
    res.setupSec = secondsSince(t_setup);

    cfg.edge();
    const Clock::time_point t0 = Clock::now();
    std::vector<double> step_ms;
    while (!task->done()) {
        const Clock::time_point ts = Clock::now();
        {
            Span s(tr, "graph.step", Layer::Graph);
            task->step();
        }
        step_ms.push_back(secondsSince(ts) * 1e3);
    }
    GraphUpdateResult r;
    {
        Span s(tr, "graph.result", Layer::Graph);
        r = task->result();
    }
    double joined;
    {
        Span s(tr, "core.sync", Layer::Core);
        joined = queue.sync();
    }
    res.measuredSec = secondsSince(t0);
    cfg.edge();

    const uint64_t expected = expectedUpdateEdges(in.graph);
    if (r.updateEdgesTotal != expected)
        res.error("graph-ingest: " + std::to_string(r.updateEdgesTotal)
                  + " update edges, the generated stream has "
                  + std::to_string(expected));
    if (r.allocStats.mallocCalls != r.updateEdgesTotal)
        res.error("graph-ingest: " + std::to_string(r.allocStats.mallocCalls)
                  + " pimMalloc calls for "
                  + std::to_string(r.updateEdgesTotal)
                  + " inserted edges (LinkedList allocates one node each)");
    res.attempted = r.updateEdgesTotal;
    res.failed = r.lostEdges + r.allocStats.failures;
    res.ops = r.updateEdgesTotal - r.lostEdges;

    res.sim["sim_makespan_s"] = r.wallSeconds;
    res.sim["sim_medges_per_s"] = r.millionEdgesPerSec;
    res.sim["sim_alloc_cycles_mean"] = r.allocStats.latency.mean();
    res.sim["sim_alloc_cycles_p99"] = r.allocStats.latency.p99();
    addAllocLayer(res, kAllocator, r.allocStats, r.traffic.metadataBytes(),
                  0.0, 0.0);
    // The merged stats carry no peak; the result holds the worst shard's.
    res.layer["alloc.peak_frag.hwsw"] = r.fragmentation;
    addBreakdownLayer(res, r.breakdown);
    addQueueLayer(res, queue, joined);
    res.layer["graph.step_ms_p50"] = percentile(step_ms, 50.0);
    res.layer["graph.step_ms_p90"] = percentile(step_ms, 90.0);
    return res;
}

} // namespace perfbench

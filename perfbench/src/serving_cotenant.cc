/**
 * @file
 * serving-cotenant: the multi-tenant study scaled up, and the only
 * workload that runs src/workloads/llm (the real KV allocator in
 * prefill, launchTimed decode, double-buffered scatter), tenant lanes,
 * rank grants and bus head-of-line interference. An 8-rank system is
 * split by RankScheduler grants between a DisaggServingTask (240
 * requests; 1 prefill + 3 decode ranks) and a paced GraphUpdateTask (64
 * rounds at a 0.25 s interval), co-stepped by clockSeconds(). Arrivals
 * follow the seeded trace regardless of service — an open loop in
 * simulated time, with TTFT timed from arrival.
 *
 * One iteration runs four such co-runs, each on a fresh system with its
 * own arrival trace and graph: the host cost of a trace depends on how
 * its arrivals batch into prefill waves (allocator contention), by up to
 * +-10% between traces, and four traces per iteration halve that spread.
 * Simulated times add up over the co-runs; latencies and throughputs are
 * their means.
 */

#include <map>
#include <memory>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "core/rank_scheduler.hh"
#include "spans.hh"
#include "util/rng.hh"
#include "workloads.hh"
#include "workloads/graph/update_driver.hh"
#include "workloads/llm/serving_engine.hh"

namespace perfbench {

using namespace pim;
using workloads::graph::GraphUpdateConfig;
using workloads::graph::GraphUpdateResult;
using workloads::graph::GraphUpdateTask;
using workloads::llm::DisaggServingTask;
using workloads::llm::ServingResult;

namespace {

constexpr unsigned kReplicas = 4;
constexpr unsigned kDpus = 512; // 8 ranks of 64
constexpr unsigned kServingRanks = 4;
constexpr unsigned kRequests = 240;
constexpr unsigned kTasklets = 16;
constexpr unsigned kRounds = 64;
constexpr double kRoundIntervalSec = 0.25;
constexpr core::AllocatorKind kAllocator = core::AllocatorKind::PimMallocSw;
constexpr uint32_t kKvBlockBytes = 512;

/**
 * Update edges of the graph shards that @p part's materialized DPUs
 * simulate: with one DPU per rank only those shards insert (one
 * pimMalloc per edge). The oracle regenerates the graph, so it is
 * memoized on the seeds.
 */
uint64_t
sampledUpdateEdges(const GraphInputs &g, const core::PimSystem &sys,
                   const core::DpuSet &part)
{
    static std::map<std::pair<uint64_t, uint64_t>, uint64_t> memo;
    const auto key = std::make_pair(g.gen.seed, g.splitSeed);
    if (const auto it = memo.find(key); it != memo.end())
        return it->second;
    std::vector<bool> sampled(part.size(), false);
    for (const unsigned slot : part.slots())
        sampled[part.indexOf(sys.globalIndex(slot))] = true;
    const workloads::graph::UpdateWorkload w =
        workloads::graph::splitForUpdate(
            workloads::graph::generateGraph(g.gen), 1.0 / 3.0, g.splitSeed);
    uint64_t n = 0;
    for (const workloads::graph::Edge &e : w.updateEdges)
        n += sampled[workloads::graph::shardOf(e.src, part.size())] ? 1 : 0;
    memo.emplace(key, n);
    return n;
}

} // namespace

ServingCotenantInputs
makeServingCotenantInputs(uint64_t seed)
{
    util::Rng rng = util::Rng(seed).stream("serving-cotenant");
    ServingCotenantInputs in;
    for (unsigned k = 0; k < kReplicas; ++k) {
        ServingReplica r;
        r.traceSeed = rng.next();
        r.graph.gen.numNodes = 50000;
        r.graph.gen.numEdges = 250000;
        r.graph.gen.seed = rng.next();
        r.graph.splitSeed = rng.next();
        in.replicas.push_back(r);
    }
    return in;
}

namespace {

/** What the co-runs of one iteration add up to. */
struct Totals
{
    alloc::AllocStats alloc;
    double peakFrag = 0.0;
    sim::CycleBreakdown breakdown;
    std::vector<double> llmUs;
    std::vector<double> graphMs;
    double makespan = 0.0;
    double tpotP99Ms = 0.0;
    double ttftP95Ms = 0.0;
    double medges = 0.0;
    uint64_t metadataBytes = 0;
};

/** One co-run on a fresh system: set-up and measured host time, checks
 *  and counters go to @p res, simulated results to @p tot. */
void
coRun(const ServingReplica &in, const IterConfig &cfg, IterResult &res,
      Totals &tot)
{
    Tracer *const tr = cfg.tracer;

    const Clock::time_point t_setup = Clock::now();
    // Memoized per process: only the first call pays the allocator
    // microbenchmark.
    {
        Span s(tr, "llm.calibratedAllocLatency", Layer::Llm);
        workloads::llm::calibratedAllocLatency(kAllocator, kTasklets,
                                               kKvBlockBytes);
    }
    if (!res.layer.count("llm.calibration_s"))
        res.layer["llm.calibration_s"] = secondsSince(t_setup);
    const Clock::time_point t_sys = Clock::now();
    core::PimSystemConfig scfg;
    scfg.numDpus = kDpus;
    // One representative DPU per rank: both tenants launch real
    // programs and need a materialized member in every owned rank.
    scfg.samplePerRank = true;
    scfg.simThreads = cfg.threads;
    std::unique_ptr<core::PimSystem> sys;
    {
        Span s(tr, "core.PimSystem", Layer::Core);
        sys = std::make_unique<core::PimSystem>(scfg);
    }
    res.layer["core.system_setup_s"] += secondsSince(t_sys);
    core::CommandQueue queue(*sys);
    if (cfg.metrics != nullptr)
        queue.attachMetrics(cfg.metrics);
    if (cfg.recorder != nullptr)
        queue.attachRecorder(cfg.recorder);
    core::RankScheduler sched(*sys);
    const core::TenantId t_serving = queue.addTenant("serving");
    const core::TenantId t_graph = queue.addTenant("graph");
    const core::DpuSet serving_part =
        sched.acquireRanks(kServingRanks, "serving");
    const core::DpuSet graph_part =
        sched.acquireRanks(sched.freeRankCount(), "graph");

    workloads::llm::ServingScheme scheme;
    scheme.allocator = kAllocator;
    workloads::llm::ServingEngineConfig ecfg;
    ecfg.mode = workloads::llm::ServingMode::Disaggregated;
    ecfg.base.numRequests = kRequests;
    ecfg.base.allocTasklets = kTasklets;
    ecfg.base.kvBlockBytes = kKvBlockBytes;
    ecfg.base.seed = in.traceSeed;
    ecfg.base.metrics = cfg.metrics;
    ecfg.simThreads = cfg.threads;

    GraphUpdateConfig gcfg;
    gcfg.structure = workloads::graph::StructureKind::LinkedList;
    gcfg.allocator = kAllocator;
    gcfg.numDpus = kDpus;
    gcfg.tasklets = kTasklets;
    gcfg.gen = in.graph.gen;
    gcfg.seed = in.graph.splitSeed;
    gcfg.updateRounds = kRounds;
    gcfg.shipUpdates = true;
    gcfg.roundIntervalSec = kRoundIntervalSec;
    gcfg.simThreads = cfg.threads;
    gcfg.metrics = cfg.metrics;

    std::unique_ptr<DisaggServingTask> serving;
    {
        Span s(tr, "llm.DisaggServingTask", Layer::Llm);
        serving = std::make_unique<DisaggServingTask>(
            scheme, ecfg, queue, serving_part, t_serving);
    }
    std::unique_ptr<GraphUpdateTask> graph;
    {
        Span s(tr, "graph.GraphUpdateTask", Layer::Graph);
        graph = std::make_unique<GraphUpdateTask>(gcfg, queue, graph_part,
                                                  t_graph);
    }
    // Event 0 is the fresh queue's first command; resolving it drains
    // the serving allocator init and the graph build here, outside the
    // measured region.
    const Clock::time_point t_build = Clock::now();
    {
        Span s(tr, "core.eventSeconds", Layer::Core);
        queue.eventSeconds(0);
    }
    res.layer["graph.build_s"] += secondsSince(t_build);
    res.setupSec += secondsSince(t_setup);

    // Deterministic co-scheduler: advance the tenant whose pipeline
    // clock is behind (ties go to serving).
    cfg.edge();
    const Clock::time_point t0 = Clock::now();
    const size_t llm_steps0 = tot.llmUs.size();
    const size_t graph_steps0 = tot.graphMs.size();
    while (!serving->done() || !graph->done()) {
        const Clock::time_point ts = Clock::now();
        if (serving->done()
            || (!graph->done()
                && graph->clockSeconds() < serving->clockSeconds())) {
            {
                Span s(tr, "graph.step", Layer::Graph);
                graph->step();
            }
            tot.graphMs.push_back(secondsSince(ts) * 1e3);
        } else {
            {
                Span s(tr, "llm.step", Layer::Llm);
                serving->step();
            }
            tot.llmUs.push_back(secondsSince(ts) * 1e6);
        }
    }
    double joined;
    {
        Span s(tr, "core.sync", Layer::Core);
        joined = queue.sync();
    }
    ServingResult sr;
    GraphUpdateResult gr;
    {
        Span s(tr, "llm.result", Layer::Llm);
        sr = serving->result();
    }
    {
        Span s(tr, "graph.result", Layer::Graph);
        gr = graph->result();
    }
    res.measuredSec += secondsSince(t0);
    cfg.edge();

    if (sr.completedRequests != kRequests || sr.lostRequests != 0
        || sr.lostSteps != 0)
        res.error("serving-cotenant: " + std::to_string(sr.completedRequests)
                  + " of " + std::to_string(kRequests)
                  + " requests completed, " + std::to_string(sr.lostRequests)
                  + " lost, " + std::to_string(sr.lostSteps)
                  + " lost steps");
    const uint64_t expected = expectedUpdateEdges(in.graph);
    const uint64_t sampled = sampledUpdateEdges(in.graph, *sys, graph_part);
    if (gr.updateEdgesTotal != expected
        || gr.allocStats.mallocCalls != sampled)
        res.error("serving-cotenant: graph tenant inserted "
                  + std::to_string(gr.updateEdgesTotal) + " edges with "
                  + std::to_string(gr.allocStats.mallocCalls)
                  + " pimMalloc calls; the stream has "
                  + std::to_string(expected) + " edges, "
                  + std::to_string(sampled) + " on simulated shards");
    res.attempted += kRequests + gr.updateEdgesTotal;
    res.failed += (kRequests - std::min(kRequests, sr.completedRequests))
        + gr.lostEdges + gr.allocStats.failures;
    res.ops += (tot.llmUs.size() - llm_steps0)
        + (tot.graphMs.size() - graph_steps0);

    tot.makespan += joined;
    tot.tpotP99Ms += sr.tpotP99Ms / kReplicas;
    tot.ttftP95Ms += sr.ttftP95Ms / kReplicas;
    tot.medges += gr.millionEdgesPerSec / kReplicas;
    const alloc::AllocStats &st = gr.allocStats;
    tot.alloc.mallocCalls += st.mallocCalls;
    tot.alloc.freeCalls += st.freeCalls;
    tot.alloc.failures += st.failures;
    for (size_t l = 0; l < 3; ++l) {
        tot.alloc.serviced[l] += st.serviced[l];
        tot.alloc.cyclesByLevel[l] += st.cyclesByLevel[l];
    }
    for (const double x : st.latency.samples())
        tot.alloc.latency.add(x);
    tot.peakFrag = std::max(tot.peakFrag, gr.fragmentation);
    tot.breakdown.merge(gr.breakdown);
    addQueueLayer(res, queue, joined);
    res.layer["llm.prefill_waves"] += sr.prefillWaves;
    res.layer["llm.kv_shipped_bytes"] +=
        static_cast<double>(sr.kvShippedBytes);
    tot.metadataBytes += gr.traffic.metadataBytes();
}

} // namespace

IterResult
runServingCotenant(const ServingCotenantInputs &in, const IterConfig &cfg)
{
    IterResult res;
    Totals tot;
    for (const ServingReplica &r : in.replicas)
        coRun(r, cfg, res, tot);

    res.sim["sim_makespan_s"] = tot.makespan;
    res.sim["sim_tpot_p99_ms"] = tot.tpotP99Ms;
    res.sim["sim_ttft_p95_ms"] = tot.ttftP95Ms;
    res.sim["sim_medges_per_s"] = tot.medges;
    res.sim["sim_alloc_cycles_mean"] = tot.alloc.latency.mean();
    res.sim["sim_alloc_cycles_p99"] = tot.alloc.latency.p99();
    addAllocLayer(res, kAllocator, tot.alloc, tot.metadataBytes, 0.0, 0.0);
    res.layer["alloc.peak_frag.sw"] = tot.peakFrag;
    addBreakdownLayer(res, tot.breakdown);
    res.layer["graph.step_ms_p50"] = percentile(tot.graphMs, 50.0);
    res.layer["graph.step_ms_p90"] = percentile(tot.graphMs, 90.0);
    res.layer["llm.step_us_p50"] = percentile(tot.llmUs, 50.0);
    res.layer["llm.step_us_p99"] = percentile(tot.llmUs, 99.0);
    res.layer["llm.steps"] = static_cast<double>(tot.llmUs.size());
    return res;
}

} // namespace perfbench

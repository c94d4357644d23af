/**
 * @file
 * The four benchmark workloads. Each one has a generator that turns the
 * benchmark seed into the workload's inputs (the same seed always gives
 * the same inputs) and an iteration function that builds a fresh system,
 * runs the inputs once, checks the outputs, and reports what it measured.
 *
 *   alloc-mix        — allocator + tasklet event loop, one DPU
 *   queue-storm      — command-queue orchestration, no allocator
 *   graph-ingest     — Fig 17 graph updates over 512 DPUs
 *   serving-cotenant — LLM serving + graph ingest sharing 8 ranks
 *
 * See perfbench/README.md for why each workload exists and which layer
 * metric should move which end-to-end metric.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "alloc/alloc_stats.hh"
#include "core/allocator_factory.hh"
#include "core/command_queue.hh"
#include "sim/types.hh"
#include "workloads/graph/graph_gen.hh"

namespace pim::telemetry {
class Registry;
}

namespace pim::trace {
class Recorder;
}

namespace perfbench {

class Tracer;

using Clock = std::chrono::steady_clock;

/** Host seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** How one iteration runs. */
struct IterConfig
{
    /** Simulator worker threads of every PimSystem built. */
    unsigned threads = 4;
    /** Span sink (traced iteration only). */
    Tracer *tracer = nullptr;
    /** Observers attached to the iteration's CommandQueue (and handed
     *  to the workload tasks) through the public attach calls. */
    pim::telemetry::Registry *metrics = nullptr;
    pim::trace::Recorder *recorder = nullptr;
    /** Called just before and just after each measured region, outside
     *  its timing (the host-speed reference runs there). */
    std::function<void()> measureEdge{};

    void
    edge() const
    {
        if (measureEdge)
            measureEdge();
    }
};

/** What one iteration measured. */
struct IterResult
{
    /** Host time outside the measured region. */
    double setupSec = 0.0;
    /** Host time of the measured region. */
    double measuredSec = 0.0;
    /** Workload operations completed in the measured region. */
    uint64_t ops = 0;
    /** Operations that can fail, and the ones that did. */
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** Correctness violations; any entry fails the run. */
    std::vector<std::string> errors;
    /** sim_* metrics: simulated results, identical for identical
     *  inputs on any thread count. */
    std::map<std::string, double> sim;
    /** Per-layer counters and host times (catalogue names). */
    std::map<std::string, double> layer;

    /** Record a correctness violation (the first few keep their text). */
    void error(const std::string &what);
};

// ---------------------------------------------------------------------
// alloc-mix
// ---------------------------------------------------------------------

/** One scripted allocator call: malloc(size), or, when size is 0, free
 *  of the tasklet's live block at position victim. */
struct AllocOp
{
    uint32_t size;
    uint32_t victim;
    bool operator==(const AllocOp &) const = default;
};

struct AllocMixInputs
{
    /** One closed-loop script per tasklet of the 16-tasklet launch. */
    std::vector<std::vector<AllocOp>> scripts16;
    /** The script of the 1-tasklet launch. */
    std::vector<AllocOp> script1;
    bool operator==(const AllocMixInputs &) const = default;
};

AllocMixInputs makeAllocMixInputs(uint64_t seed);
IterResult runAllocMix(const AllocMixInputs &in, const IterConfig &cfg);

// ---------------------------------------------------------------------
// queue-storm
// ---------------------------------------------------------------------

struct StormCommand
{
    enum class Kind : uint8_t { FullLaunch, RankLaunch, Copy, Scatter };
    Kind kind;
    /** Target rank (every kind but FullLaunch). */
    uint32_t rank;
    /** Launch: instructions each tasklet executes. */
    uint32_t instrs;
    /** Copy: bytes per DPU. */
    uint32_t bytes;
    /** Index of an earlier command of the same wave this one orders
     *  after, or -1. */
    int32_t after;
    /** Scatter: bytes per DPU of the rank. */
    std::vector<uint64_t> scatter;
    bool operator==(const StormCommand &) const = default;
};

struct QueueStormInputs
{
    /** Each wave is enqueued, then drained by one sync(). */
    std::vector<std::vector<StormCommand>> waves;
    bool operator==(const QueueStormInputs &) const = default;
};

QueueStormInputs makeQueueStormInputs(uint64_t seed);
IterResult runQueueStorm(const QueueStormInputs &in, const IterConfig &cfg);

// ---------------------------------------------------------------------
// graph-ingest and serving-cotenant
// ---------------------------------------------------------------------

/** A seeded synthetic graph and the seed of its update split. */
struct GraphInputs
{
    pim::workloads::graph::GraphGenConfig gen;
    uint64_t splitSeed = 0;
    bool operator==(const GraphInputs &o) const;
};

/** Update edges the split of @p in yields (one third of the edges). */
uint64_t expectedUpdateEdges(const GraphInputs &in);

struct GraphIngestInputs
{
    GraphInputs graph;
    bool operator==(const GraphIngestInputs &) const = default;
};

GraphIngestInputs makeGraphIngestInputs(uint64_t seed);
IterResult runGraphIngest(const GraphIngestInputs &in, const IterConfig &cfg);

/** One co-run: the serving tenant's arrival trace and the graph
 *  tenant's stream. */
struct ServingReplica
{
    /** Seed of the request arrival trace. */
    uint64_t traceSeed = 0;
    GraphInputs graph;
    bool operator==(const ServingReplica &) const = default;
};

struct ServingCotenantInputs
{
    std::vector<ServingReplica> replicas;
    bool operator==(const ServingCotenantInputs &) const = default;
};

ServingCotenantInputs makeServingCotenantInputs(uint64_t seed);
IterResult runServingCotenant(const ServingCotenantInputs &in,
                              const IterConfig &cfg);

// ---------------------------------------------------------------------
// Helpers shared by the workload files.
// ---------------------------------------------------------------------

/** Percentile (0-100) of @p xs, interpolated like util::Percentile
 *  (which it uses); 0 for an empty vector. */
double percentile(const std::vector<double> &xs, double p);

/** The allocator metrics of one kind ("alloc.*.<suffix>"). */
void addAllocLayer(IterResult &res, pim::core::AllocatorKind kind,
                   const pim::alloc::AllocStats &stats,
                   uint64_t metadata_traffic_bytes, double buddy_hit_rate,
                   double mutex_contended_frac);

/** sim.run_frac / busywait_frac / idle_mem_frac of @p bd. */
void addBreakdownLayer(IterResult &res, const pim::sim::CycleBreakdown &bd);

/** Add the queue's drain, bus and launch-work counts to "core.*";
 *  the bus share is of @p makespan_sec simulated seconds. */
void addQueueLayer(IterResult &res, const pim::core::CommandQueue &queue,
                   double makespan_sec);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

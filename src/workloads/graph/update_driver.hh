/**
 * @file
 * End-to-end dynamic graph update experiment (Fig 3(c), Fig 17):
 * shards the synthetic dataset across DPUs, bulk-loads the pre-update
 * graph in an untimed launch, then measures the parallel insertion of
 * the update stream, in one or more rounds, with the selected data
 * structure and allocator.
 */

#ifndef PIM_WORKLOADS_GRAPH_UPDATE_DRIVER_HH
#define PIM_WORKLOADS_GRAPH_UPDATE_DRIVER_HH

#include <cstdint>
#include <memory>

#include "alloc/alloc_stats.hh"
#include "core/allocator_factory.hh"
#include "core/command_queue.hh"
#include "core/session.hh"
#include "fault/fault_plan.hh"
#include "sim/types.hh"
#include "workloads/graph/graph_gen.hh"

namespace pim::trace {
class Recorder;
}

namespace pim::telemetry {
class Registry;
}

namespace pim::workloads::graph {

/** The three representations of Fig 17(a). */
enum class StructureKind {
    StaticCsr,
    LinkedList,
    VarArray,
};

/** Display name of a structure kind. */
const char *structureKindName(StructureKind s);

/** Experiment parameters. */
struct GraphUpdateConfig
{
    /** Adjacency representation under test. */
    StructureKind structure = StructureKind::LinkedList;
    /** Allocator for the dynamic representations (ignored for CSR). */
    core::AllocatorKind allocator = core::AllocatorKind::PimMallocSw;
    /** System size the dataset is sharded across. */
    unsigned numDpus = 512;
    /** Representative DPUs actually simulated (0 = all of numDpus). */
    unsigned sampleDpus = 2;
    /** Tasklets per DPU processing insertions. */
    unsigned tasklets = 16;
    /** Dataset generator parameters. */
    GraphGenConfig gen{};
    /** Truncate the update stream to this many edges (0 = all). Used by
     *  the Fig 3(c) experiment, which fixes the update count while the
     *  pre-update graph grows. */
    uint64_t maxUpdateEdges = 0;
    /** Record per-allocation events (Fig 17(b,c)). */
    bool traceEvents = false;
    /**
     * Number of update rounds the stream is split into: every shard
     * inserts its edges in R slices, each slice a separate launch on
     * the command queue, so a co-tenant run interleaves with other
     * tenants at round granularity. 1 = one measured launch.
     */
    unsigned updateRounds = 1;
    /**
     * Ship each round's update edges (8 B/edge) to the owning DPUs over
     * the bus (double-buffered scatter) before the round's launch,
     * instead of assuming the stream is resident.
     */
    bool shipUpdates = false;
    /**
     * Ingest cadence: round r is not issued before r *
     * roundIntervalSec after the build completes (the tenant's host
     * lane idles until then), modeling an update stream that arrives
     * over time instead of being fully buffered. 0 = back-to-back
     * rounds.
     */
    double roundIntervalSec = 0.0;
    /** Workload split seed. */
    uint64_t seed = 7;
    /** Host worker threads simulating shards (0 = PIM_SIM_THREADS env,
     *  else hardware concurrency). Results are thread-count invariant. */
    unsigned simThreads = 0;
    /**
     * Observers runGraphUpdate attaches to the queue it builds
     * (nullptr = off). A GraphUpdateTask on a caller's queue ignores
     * both and uses that queue's recorder and registry.
     *
     * recorder: span recorder fed by the command queue.
     * metrics: queue counters/utilization plus the per-round ingest
     * latency histogram "graph.round_sec" (completion minus the round's
     * scheduled issue time) and, when sloRoundSec is set, attainment
     * under "graph.round".
     */
    trace::Recorder *recorder = nullptr;
    telemetry::Registry *metrics = nullptr;
    /** Round-latency SLO target in seconds (0 = no SLO declared). */
    double sloRoundSec = 0.0;
    /**
     * Fault injection (opt-in): runGraphUpdate runs its task in a
     * core::Session built from (faultSpec, faultSeed), which holds one
     * rank back from the task's grant when rank failures are in play so
     * a replacement exists. The task always recovers: a failed round
     * re-executes (after shipping its slice again if its shipment
     * failed), and a dead rank's shards are restored onto the
     * replacement. Disabled by default; the fault-free path is
     * byte-identical to the pre-fault driver. (Co-tenant
     * GraphUpdateTask callers hand the fault knobs to their own
     * Session.)
     */
    fault::FaultSpec faultSpec{};
    uint64_t faultSeed = 29;
};

/** Aggregated outcome of the update phase. */
struct GraphUpdateResult
{
    /** Makespan of the update phase (max over sampled DPUs). */
    double updateSeconds = 0.0;
    /** System-wide update throughput. */
    double millionEdgesPerSec = 0.0;
    /** Update edges across the whole system. */
    uint64_t updateEdgesTotal = 0;
    /** Launch-wide cycle breakdown, summed over sampled DPUs. */
    sim::CycleBreakdown breakdown{};
    /** DMA traffic of the update phase, summed over sampled DPUs. */
    sim::TrafficStats traffic{};
    /** Allocator statistics merged over sampled DPUs (update phase
     *  counters; fragmentation covers the whole run). */
    alloc::AllocStats allocStats;
    /** Worst peak A/U over sampled DPUs (Table III). */
    double fragmentation = 0.0;
    /** Allocator metadata footprint per DPU (Section VI-E), bytes. */
    uint64_t metadataBytes = 0;
    /** Mean pimMalloc() latency during updates, microseconds. */
    double avgAllocLatencyUs = 0.0;
    /**
     * Queue-timeline wall time of the update rounds (completion of the
     * last round minus completion of the build launch) — the metric a
     * co-tenant run compares against its solo baseline.
     */
    double wallSeconds = 0.0;

    /** Fault injection (all zero/ideal in a fault-free run). */
    unsigned rankFailures = 0;    ///< rank deaths inside this partition
    unsigned reExecutedRounds = 0; ///< failed rounds re-run
    /** Always 0: the task loses no update edge. Kept only because
     *  perfbench reads it. */
    uint64_t lostEdges = 0;
    uint64_t restoreBytes = 0;    ///< shard state restored to replacements
    /** Mean time-to-repair: rank death -> replacement granted and the
     *  shard restore landed. */
    double mttrMeanSec = 0.0;
    /** 1 - (time some failure was unrepaired) / update wall time. */
    double availability = 1.0;
};

/**
 * Run the experiment: one GraphUpdateTask over a fresh system, driven
 * by a core::Session. Deterministic in the config.
 */
GraphUpdateResult runGraphUpdate(const GraphUpdateConfig &cfg);

/**
 * The graph-update experiment as a core::Stepper on an externally owned
 * CommandQueue and rank partition. Construction shards the dataset
 * across the partition's logical DPUs (dense DpuSet::indexOf order): it
 * deals the dataset once into the materialized shards, in time that
 * grows with the dataset and not with the partition, and keeps no copy
 * of it. It then enqueues the untimed build launch of each shard's
 * allocator and pre-update graph. Each step() enqueues one update round
 * (optionally preceded by its double-buffered edge shipment) and
 * advances the task clock to the round's completion. runGraphUpdate is
 * this task over all ranks of a fresh system.
 *
 * The task never joins the queue's timelines (no sync()); co-resident
 * tenants keep issuing while it runs.
 */
class GraphUpdateTask : public core::Stepper
{
  public:
    /**
     * @param partition rank-granular DpuSet this tenant owns; the
     *        dataset is sharded across its size() logical DPUs.
     * @param tenant the queue tenant commands are issued as (register
     *        with CommandQueue::addTenant; 0 = the default host).
     */
    GraphUpdateTask(const GraphUpdateConfig &cfg,
                    core::CommandQueue &queue,
                    const core::DpuSet &partition,
                    core::TenantId tenant = core::kDefaultTenant);
    ~GraphUpdateTask() override;

    /** True once every update round has completed. */
    bool done() const override;

    /** Completion time of the task's latest round. */
    double clockSeconds() const override;

    /**
     * Enqueue the next update round and wait for it. A failed round is
     * parked and re-executed by the next step as one timed launch; if
     * its shipment failed, the slice never landed and ships again to
     * the shards' current homes first ("recover:updates r<R>"), with
     * the redo ordered after it. A retry that fails again stays parked.
     */
    void step() override;

    /** Checkpoints the dead rank's shards and pauses until a
     *  replacement is granted: always returns true. */
    bool onRankFailed(unsigned rank, double failSec) override;

    /**
     * The dead rank's shard state is restored onto the replacement
     * from the host-side checkpoint (costed as a bus transfer), and the
     * failed round — plus the migrated shards' remaining rounds —
     * re-executes there as timed launches.
     */
    void onReplacementGranted(const core::DpuSet &replacement) override;

    /** Metrics of the completed experiment (valid once done()). */
    GraphUpdateResult result() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** DPU shard owning @p node (multiplicative hash, uniform). */
unsigned shardOf(uint32_t node, unsigned num_dpus);

} // namespace pim::workloads::graph

#endif // PIM_WORKLOADS_GRAPH_UPDATE_DRIVER_HH

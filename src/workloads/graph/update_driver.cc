#include "workloads/graph/update_driver.hh"

#include <algorithm>
#include <deque>
#include <memory>
#include <optional>

#include "alloc/allocator.hh"
#include "core/pim_system.hh"
#include "sim/dpu.hh"
#include "telemetry/registry.hh"
#include "util/logging.hh"
#include "workloads/graph/csr_graph.hh"
#include "workloads/graph/linked_list_graph.hh"
#include "workloads/graph/var_array_graph.hh"

namespace pim::workloads::graph {

const char *
structureKindName(StructureKind s)
{
    switch (s) {
      case StructureKind::StaticCsr: return "Static (CSR)";
      case StructureKind::LinkedList: return "Dynamic (array of linked lists)";
      case StructureKind::VarArray: return "Dynamic (variable sized array)";
    }
    return "?";
}

unsigned
shardOf(uint32_t node, unsigned num_dpus)
{
    return static_cast<unsigned>((node * 2654435761u) >> 8) % num_dpus;
}

namespace {

/** MRAM offset of the node tables (clear of the 32 MB allocator heap). */
constexpr sim::MramAddr kTableBase = 48u << 20;

/** Fraction of the dataset's edges held back as the update stream (the
 *  paper's 1/3). */
constexpr double kNewFraction = 1.0 / 3.0;

/** Shard-local view of the workload for one DPU. */
struct Shard
{
    uint32_t numLocalNodes = 0;
    std::vector<Edge> baseEdges;   ///< src remapped to local ids
    std::vector<Edge> updateEdges; ///< src remapped to local ids
};

/** The truncated update split of @p cfg's dataset. */
UpdateWorkload
buildWorkload(const GraphUpdateConfig &cfg)
{
    const GraphDataset dataset = generateGraph(cfg.gen);
    UpdateWorkload w = splitForUpdate(dataset, kNewFraction, cfg.seed);
    if (cfg.maxUpdateEdges > 0 && w.updateEdges.size() > cfg.maxUpdateEdges)
        w.updateEdges.resize(cfg.maxUpdateEdges);
    return w;
}

/** Per-shard outcome, filled by its worker and merged in shard order
 *  afterwards so the result is thread-count invariant. */
struct ShardOutcome
{
    bool simulated = false;
    uint64_t cycles = 0;
    sim::CycleBreakdown breakdown{};
    sim::TrafficStats traffic{};
    bool hasAllocator = false;
    alloc::AllocStats stats;
    uint64_t metadataBytes = 0;
};

/** Sequential merge in shard order — identical to the former
 *  single-threaded loop, for any worker count. */
void
mergeOutcomes(GraphUpdateResult &out, const sim::DpuConfig &dpuCfg,
              const std::vector<ShardOutcome> &outcomes)
{
    uint64_t max_cycles = 0;
    for (const ShardOutcome &oc : outcomes) {
        if (!oc.simulated)
            continue;
        max_cycles = std::max(max_cycles, oc.cycles);
        out.breakdown.merge(oc.breakdown);
        out.traffic.merge(oc.traffic);
        if (oc.hasAllocator) {
            const auto &st = oc.stats;
            out.allocStats.mallocCalls += st.mallocCalls;
            out.allocStats.freeCalls += st.freeCalls;
            out.allocStats.failures += st.failures;
            for (size_t l = 0; l < 3; ++l) {
                out.allocStats.serviced[l] += st.serviced[l];
                out.allocStats.cyclesByLevel[l] += st.cyclesByLevel[l];
            }
            for (double x : st.latency.samples())
                out.allocStats.latency.add(x);
            out.allocStats.events.insert(out.allocStats.events.end(),
                                         st.events.begin(),
                                         st.events.end());
            out.fragmentation =
                std::max(out.fragmentation, st.peakFragmentation);
            out.metadataBytes = oc.metadataBytes;
        }
    }

    out.updateSeconds = dpuCfg.cyclesToSeconds(max_cycles);
    if (out.updateSeconds > 0) {
        out.millionEdgesPerSec =
            static_cast<double>(out.updateEdgesTotal)
            / out.updateSeconds / 1e6;
    }
    out.avgAllocLatencyUs = dpuCfg.cyclesToMicros(
        static_cast<uint64_t>(out.allocStats.latency.mean()));
}

} // namespace

/**
 * The full state of one streaming graph-update experiment between
 * step() calls: the per-slot shard dealt by the constructor and the
 * allocator/graph built by the untimed launch, the per-shard
 * round-slice bookkeeping, and the accumulated per-shard outcomes.
 */
struct GraphUpdateTask::Impl
{
    Impl(const GraphUpdateConfig &cfg_in, core::CommandQueue &q,
         const core::DpuSet &partition, core::TenantId tenant_in);

    void step();
    void commitPending(unsigned r);
    void observeRound(unsigned r, double doneSec);
    void resolveParkedRetry();
    void onRankFailed(unsigned rank, double failSec);
    void onReplacementGranted(const core::DpuSet &replacement);
    uint64_t sliceEdges(unsigned shardIdx, unsigned r) const;

    /** Persistent per-sample-slot shard state across rounds. */
    struct SlotState
    {
        bool active = false;
        Shard shard;
        std::unique_ptr<alloc::Allocator> allocator;
        std::unique_ptr<GraphStructure> graph;
    };

    GraphUpdateConfig cfg;
    core::CommandQueue &queue;
    core::PimSystem &sys;
    core::TenantId tenant;
    bool traced;
    core::DpuSet part;
    unsigned numShards;   ///< = part.size(): logical dataset shards
    unsigned rounds;      ///< total update rounds (>= 1)
    unsigned round = 0;   ///< rounds enqueued so far
    /** Update edges owned by each logical shard (scatter byte counts
     *  of shipped rounds derive from the per-round slice of these). */
    std::vector<uint64_t> shardEdgeCounts;
    std::vector<SlotState> slots;
    std::vector<ShardOutcome> outcomes;
    core::Event buildEvt = core::kNoEvent;
    core::Event lastRoundEvt = core::kNoEvent;
    double buildDoneSec = 0.0;
    double now = 0.0;
    GraphUpdateResult res; ///< updateEdgesTotal filled up front
    /** Registry sinks (both null when the queue has no registry). */
    telemetry::Registry *met = nullptr;
    telemetry::Histogram *roundHist = nullptr;

    // Fault tolerance (all of it inert — and the round path
    // numerically unchanged — unless the queue has a
    // fault::FaultInjector attached). Round bodies stage their
    // outcomes in `pending`; a round commits only once its event is
    // known to have succeeded, so a failed round's measurements never
    // leak into the result before the round has re-executed.
    core::DpuSet partAtBuild;        ///< frozen shard-id mapping
    std::vector<unsigned> partRankIds;
    std::vector<ShardOutcome> pending; ///< staged round in flight
    bool parked = false;             ///< last round failed, unresolved
    unsigned parkedR = 0;
    core::Event restoreEvt = core::kNoEvent;
    /** A shard whose home rank died: its functional state is
     *  frozen at the host-side checkpoint and its remaining slices
     *  re-execute on the replacement as timed launches at the per-edge
     *  rate measured before the death. */
    struct MigratedShard
    {
        unsigned slot;
        unsigned shardIdx;
        double perEdgeCycles;
        std::optional<core::DpuSet> home; ///< set at replacement grant
    };
    std::vector<MigratedShard> migrated;
    /** One rank death awaiting its replacement grant. */
    struct PendingFail
    {
        unsigned rank;
        double failSec;
        std::vector<MigratedShard> shards; ///< home filled at grant
        uint64_t residentBytesPerDpu = 0;
    };
    std::deque<PendingFail> pendingFails;
    /** Current home member (global DPU index) of each logical shard:
     *  its build member until the hosting rank dies, then the
     *  replacement member. Scatter byte counts of shipped rounds follow
     *  the shard here. */
    std::vector<unsigned> shardHome;
    unsigned failures = 0;
    unsigned recovered = 0;
    unsigned reExec = 0;
    uint64_t restoreBytesN = 0;
    double mttrSum = 0.0;
    double downtime = 0.0;
};

GraphUpdateTask::Impl::Impl(const GraphUpdateConfig &cfg_in,
                            core::CommandQueue &q,
                            const core::DpuSet &partition,
                            core::TenantId tenant_in)
    : cfg(cfg_in), queue(q), sys(q.system()), tenant(tenant_in),
      traced(q.recorder() != nullptr), part(partition),
      numShards(partition.size()),
      rounds(std::max(1u, cfg_in.updateRounds)), partAtBuild(partition)
{
    PIM_ASSERT(numShards >= 1, "need at least one DPU in the partition");

    met = queue.metricsRegistry();
    if (met != nullptr) {
        roundHist = &met->histogram("graph.round_sec");
        if (cfg.sloRoundSec > 0.0)
            met->slo().declare("graph.round", cfg.sloRoundSec);
    }

    slots.resize(sys.sampleCount());
    outcomes.resize(sys.sampleCount());
    pending.resize(sys.sampleCount());
    shardHome.resize(numShards);
    for (unsigned j = 0; j < numShards; ++j)
        shardHome[j] = partAtBuild.memberAt(j);
    partRankIds = partition.ranks();
    // Shard ids are frozen here: a replacement rank joining `part`
    // later must not re-deal the dataset.
    std::vector<Shard *> dealt(numShards, nullptr);
    for (const unsigned slot : partAtBuild.slots())
        dealt[partAtBuild.indexOf(sys.globalIndex(slot))] =
            &slots[slot].shard;

    // Deal the dataset into the materialized shards, one pass per
    // stream, and keep no copy of it. Shard ids are the partition's dense
    // indexOf order, so a partition run shards the dataset over its own
    // DPUs exactly like a whole-system run over all of them. A node's local
    // id is its rank among its shard's nodes in ascending id order
    // (nodes that only appear in the update stream included); edges keep
    // stream order within their shard, and every logical shard's update
    // edges are counted on the way.
    const UpdateWorkload w = buildWorkload(cfg);
    res.updateEdgesTotal = w.updateEdges.size();
    std::vector<uint32_t> localId(w.numNodes);
    for (uint32_t u = 0; u < w.numNodes; ++u) {
        if (Shard *sh = dealt[shardOf(u, numShards)])
            localId[u] = sh->numLocalNodes++;
    }
    for (const Edge &e : w.baseEdges) {
        if (Shard *sh = dealt[shardOf(e.src, numShards)])
            sh->baseEdges.push_back({localId[e.src], e.dst});
    }
    shardEdgeCounts.assign(numShards, 0);
    for (const Edge &e : w.updateEdges) {
        const unsigned j = shardOf(e.src, numShards);
        ++shardEdgeCounts[j];
        if (Shard *sh = dealt[j])
            sh->updateEdges.push_back({localId[e.src], e.dst});
    }

    // Untimed deployment launch: every sampled partition DPU builds its
    // shard's pre-update graph (allocator init + parallel build), then
    // arms the measured-phase counters.
    buildEvt = queue.launchProgram(
        part,
        [this](sim::Dpu &dpu, unsigned dpu_idx) {
            SlotState &st = slots[sys.slotOf(dpu_idx)];
            if (st.shard.numLocalNodes == 0)
                return;
            st.active = true;

            if (cfg.structure == StructureKind::StaticCsr) {
                const uint32_t max_edges = static_cast<uint32_t>(
                    st.shard.baseEdges.size()
                    + st.shard.updateEdges.size());
                st.graph = std::make_unique<CsrGraph>(
                    dpu, kTableBase, st.shard.numLocalNodes, max_edges);
            } else {
                core::AllocatorOverrides ov;
                ov.numTasklets = cfg.tasklets;
                st.allocator =
                    core::makeAllocator(dpu, cfg.allocator, ov);
                if (cfg.structure == StructureKind::LinkedList) {
                    st.graph = std::make_unique<LinkedListGraph>(
                        dpu, *st.allocator, kTableBase,
                        st.shard.numLocalNodes);
                } else {
                    st.graph = std::make_unique<VarArrayGraph>(
                        dpu, *st.allocator, kTableBase,
                        st.shard.numLocalNodes);
                }
            }

            if (st.allocator)
                dpu.run(1,
                        [&](sim::Tasklet &t) { st.allocator->init(t); });
            dpu.run(cfg.tasklets, [&](sim::Tasklet &t) {
                if (cfg.structure == StructureKind::StaticCsr) {
                    if (t.id() == 0)
                        st.graph->build(t, st.shard.baseEdges);
                    return;
                }
                // Node-partitioned parallel build: tasklet k owns
                // local nodes with id % tasklets == k, so no two
                // tasklets ever touch the same adjacency list.
                std::vector<Edge> mine;
                for (const auto &e : st.shard.baseEdges) {
                    if (e.src % cfg.tasklets == t.id())
                        mine.push_back(e);
                }
                st.graph->build(t, mine);
            });

            // Measured phase starts at the first update round.
            dpu.resetStats();
            if (st.allocator) {
                st.allocator->stats().resetCounters();
                st.allocator->stats().traceEvents = cfg.traceEvents;
            }
        },
        {.label = traced ? "graph build" : "", .tenant = tenant});
}

uint64_t
GraphUpdateTask::Impl::sliceEdges(unsigned shardIdx, unsigned r) const
{
    const uint64_t c = shardEdgeCounts[shardIdx];
    return (static_cast<uint64_t>(r) + 1) * c / rounds
        - static_cast<uint64_t>(r) * c / rounds;
}

void
GraphUpdateTask::Impl::commitPending(unsigned r)
{
    for (size_t slot = 0; slot < pending.size(); ++slot) {
        ShardOutcome &pc = pending[slot];
        if (!pc.simulated)
            continue;
        ShardOutcome &oc = outcomes[slot];
        oc.simulated = true;
        oc.cycles += pc.cycles;
        oc.breakdown.merge(pc.breakdown);
        oc.traffic.merge(pc.traffic);
        if (pc.hasAllocator) {
            oc.hasAllocator = true;
            oc.stats = pc.stats;
            oc.metadataBytes = pc.metadataBytes;
        }
        pc = ShardOutcome{};
    }
    // Migrated shards' slices ran as timed launches at their estimated
    // per-edge rate; account the same estimate so throughput stays
    // consistent with the charged timeline.
    for (const MigratedShard &m : migrated) {
        outcomes[m.slot].cycles += static_cast<uint64_t>(
            m.perEdgeCycles
            * static_cast<double>(sliceEdges(m.shardIdx, r)));
    }
}

void
GraphUpdateTask::Impl::observeRound(unsigned r, double doneSec)
{
    if (met == nullptr)
        return;
    // Round latency on the ingest clock: completion minus the round's
    // scheduled arrival (the build completion plus r pacing intervals),
    // so back-to-back rounds report pure service time and a paced
    // stream reports service + queueing delay.
    const double due =
        buildDoneSec + static_cast<double>(r) * cfg.roundIntervalSec;
    const double lat = doneSec - due;
    roundHist->add(lat);
    met->slo().observe("graph.round", lat);
}

void
GraphUpdateTask::Impl::resolveParkedRetry()
{
    // Re-execute the failed round on the (possibly repaired)
    // partition, modeled as one timed launch of the staged cost,
    // ordered after any pending shard restore. The staged outcomes
    // commit only now — the round's work lands exactly once.
    double cyc = 0.0;
    for (const ShardOutcome &pc : pending)
        cyc = std::max(cyc, static_cast<double>(pc.cycles));
    for (const MigratedShard &m : migrated) {
        cyc = std::max(cyc, m.perEdgeCycles
                                * static_cast<double>(
                                    sliceEdges(m.shardIdx, parkedR)));
    }
    core::Event retry = core::kNoEvent;
    if (cyc > 0.0) {
        retry = queue.launchTimed(
            part,
            sys.config().dpuCfg.cyclesToSeconds(
                static_cast<uint64_t>(cyc)),
            {.after = restoreEvt,
             .label = traced ? "recover:redo r" + std::to_string(parkedR)
                             : std::string(),
             .tenant = tenant});
        restoreEvt = core::kNoEvent;
        const double t = queue.eventSeconds(retry);
        now = std::max(now, t);
        if (queue.eventFailed(retry))
            return; // still parked: another fault hit the retry itself
        lastRoundEvt = retry;
    }
    observeRound(parkedR, now);
    commitPending(parkedR);
    ++reExec;
    parked = false;
}

void
GraphUpdateTask::Impl::step()
{
    if (parked) {
        resolveParkedRetry();
        if (parked || round >= rounds)
            return;
    }

    const unsigned r = round;

    if (r == 0) {
        buildDoneSec = queue.eventSeconds(buildEvt);
        if (queue.faultInjector() != nullptr
            && queue.eventFailed(buildEvt)) {
            PIM_FATAL("graph build failed under fault injection before "
                      "the update stream started: raise the MTBF or "
                      "shorten the build");
        }
    }

    // Ingest pacing: the stream's round r arrives r intervals after
    // the build; idle the tenant's host lane until then so the
    // round's commands are not issued early.
    if (cfg.roundIntervalSec > 0 && r > 0) {
        queue.hostIdleUntil(
            buildDoneSec + r * cfg.roundIntervalSec,
            {.label = traced ? "wait:ingest" : std::string(),
             .tenant = tenant});
    }

    // Optionally ship this round's update edges (8 B each) to their
    // owning DPUs; the round's launch orders after the shipment so the
    // data has landed, while the double-buffered transfer leaves the
    // previous round's compute running.
    core::Event ship = core::kNoEvent;
    if (cfg.shipUpdates) {
        // Byte counts index positions of the *current* partition: a
        // recovered partition swapped the dead rank's members for the
        // replacement's. Each shard's slice ships to the member that
        // hosts it now.
        std::vector<uint64_t> bytes(part.size(), 0);
        for (unsigned j = 0; j < numShards; ++j)
            bytes[part.indexOf(shardHome[j])] +=
                sliceEdges(j, r) * sizeof(Edge);
        ship = queue.memcpyScatterBufferedAsync(
            part, std::move(bytes), core::CopyDirection::HostToPim,
            {.label = traced ? "updates r" + std::to_string(r)
                             : std::string(),
             .tenant = tenant});
    }

    const bool last = (r + 1 == rounds);
    lastRoundEvt = queue.launchProgram(
        part,
        [this, r, last](sim::Dpu &dpu, unsigned dpu_idx) {
            const unsigned slot = sys.slotOf(dpu_idx);
            SlotState &st = slots[slot];
            if (!st.active)
                return;

            // This shard's slice of the round: consecutive slices
            // cover its update stream exactly once.
            const uint64_t c = st.shard.updateEdges.size();
            const uint64_t lo = r * c / rounds;
            const uint64_t hi = (r + 1) * c / rounds;

            dpu.resetStats();
            dpu.run(cfg.tasklets, [&](sim::Tasklet &t) {
                for (uint64_t i = lo; i < hi; ++i) {
                    const Edge &e = st.shard.updateEdges[i];
                    if (e.src % cfg.tasklets != t.id())
                        continue;
                    const bool ok = st.graph->insertEdge(t, e.src, e.dst);
                    PIM_ASSERT(ok, "update insertion failed (capacity)");
                }
            });

            // Stage the outcome; it commits once the round's event is
            // known to have succeeded (immediately in a fault-free
            // run).
            ShardOutcome &oc = pending[slot];
            oc.simulated = true;
            oc.cycles += dpu.lastElapsedCycles();
            oc.breakdown.merge(dpu.lastBreakdown());
            oc.traffic.merge(dpu.traffic());
            if (!last)
                return;
            // Final round: harvest the run-wide allocator stats, then
            // return this shard's pages so full-system runs don't hold
            // every shard resident at once.
            if (st.allocator) {
                oc.hasAllocator = true;
                oc.stats = st.allocator->stats();
                oc.metadataBytes = st.allocator->metadataBytes();
            }
            st.graph.reset();
            st.allocator.reset();
            st.active = false;
            dpu.reclaimMemory();
        },
        {.after = ship,
         .label = traced ? "update r" + std::to_string(r)
                         : std::string(),
         .tenant = tenant});
    ++round;

    // Migrated shards: their slices of this round run on the
    // replacement ranks as timed launches at the measured per-edge
    // rate, ordered after the shipment like the main launch.
    std::vector<core::Event> extras;
    for (const MigratedShard &m : migrated) {
        const uint64_t k = sliceEdges(m.shardIdx, r);
        if (k == 0)
            continue;
        extras.push_back(queue.launchTimed(
            *m.home,
            sys.config().dpuCfg.cyclesToSeconds(static_cast<uint64_t>(
                m.perEdgeCycles * static_cast<double>(k))),
            {.after = ship,
             .label = traced ? "update r" + std::to_string(r)
                     + ":migrated"
                             : std::string(),
             .tenant = tenant}));
    }

    const bool faults = queue.faultInjector() != nullptr;
    double t = queue.eventSeconds(lastRoundEvt);
    bool failed = faults && queue.eventFailed(lastRoundEvt);
    for (const core::Event e : extras) {
        t = std::max(t, queue.eventSeconds(e));
        failed = failed || (faults && queue.eventFailed(e));
    }
    now = std::max(now, t);
    if (!failed) {
        observeRound(r, t);
        commitPending(r);
        return;
    }

    // The round failed: a rank died mid-round, a shipped slice was
    // permanently corrupted (poisoning the launch through .after), or
    // the launch timed out. Park the staged round; it re-executes once
    // the driver has quarantined any dead rank and a replacement has
    // joined (or immediately next step, for a transient/timeout
    // failure).
    parked = true;
    parkedR = r;
}

void
GraphUpdateTask::Impl::onRankFailed(unsigned rank, double failSec)
{
    const auto it =
        std::find(partRankIds.begin(), partRankIds.end(), rank);
    PIM_ASSERT(it != partRankIds.end(), "rank ", rank,
               " is not part of this graph partition");
    ++failures;
    partRankIds.erase(it);
    // With the last rank gone the partition stays as it was until a
    // replacement joins: an empty rank list is no DpuSet.
    if (!partRankIds.empty())
        part = sys.ranks(partRankIds);

    // Freeze each dead sampled shard at its host-side checkpoint —
    // harvest the allocator stats now (the re-executed rounds are
    // timed-only, so this is the shard's final functional state) and
    // measure the per-edge rate its remaining slices will be charged
    // at — then pause until a replacement rank is granted.
    PendingFail fail{rank, failSec, {}, 0};
    uint64_t resident_sum = 0;
    unsigned resident_n = 0;
    const core::DpuSet dead_set = sys.ranks({rank});
    for (const unsigned slot : dead_set.slots()) {
        SlotState &st = slots[slot];
        if (!st.active)
            continue;
        ShardOutcome &oc = outcomes[slot];
        oc.simulated = true;
        if (st.allocator) {
            oc.hasAllocator = true;
            oc.stats = st.allocator->stats();
            oc.metadataBytes = st.allocator->metadataBytes();
        }
        const unsigned shard_idx =
            partAtBuild.indexOf(sys.globalIndex(slot));
        const uint64_t c = shardEdgeCounts[shard_idx];
        const uint64_t processed =
            static_cast<uint64_t>(round) * c / rounds;
        const uint64_t cyc = oc.cycles + pending[slot].cycles;
        const double per_edge = processed > 0
            ? static_cast<double>(cyc) / static_cast<double>(processed)
            : 0.0;
        const uint64_t local = st.shard.updateEdges.size();
        const uint64_t local_processed =
            static_cast<uint64_t>(round) * local / rounds;
        resident_sum += st.shard.numLocalNodes * 8ull
            + (st.shard.baseEdges.size() + local_processed)
                * sizeof(Edge);
        ++resident_n;
        fail.shards.push_back({slot, shard_idx, per_edge, std::nullopt});
        st.graph.reset();
        st.allocator.reset();
        st.active = false;
    }
    if (resident_n > 0)
        fail.residentBytesPerDpu = resident_sum / resident_n;
    pendingFails.push_back(std::move(fail));
}

void
GraphUpdateTask::Impl::onReplacementGranted(
    const core::DpuSet &replacement)
{
    PIM_ASSERT(!pendingFails.empty(),
               "replacement granted with no outstanding rank failure");
    PendingFail fail = std::move(pendingFails.front());
    pendingFails.pop_front();
    ++recovered;

    for (const unsigned r : replacement.ranks())
        partRankIds.push_back(r);
    part = sys.ranks(partRankIds);

    // Repair starts no earlier than the failure was observed: the
    // replacement's lanes are idle (a fresh rank back-fills to t=0
    // otherwise), so pin the tenant's host lane first.
    queue.hostIdleUntil(std::max(now, fail.failSec),
                        {.label = traced ? "recover:wait" : std::string(),
                         .tenant = tenant});

    // Restore the dead rank's shard state onto the replacement from
    // the host-side checkpoint, costed as a bus transfer; the parked
    // round's retry orders after it.
    core::Event restore = core::kNoEvent;
    if (fail.residentBytesPerDpu > 0) {
        restore = queue.memcpyBufferedAsync(
            replacement, fail.residentBytesPerDpu,
            core::CopyDirection::HostToPim,
            {.label = traced ? "recover:restore" : std::string(),
             .tenant = tenant});
        restoreBytesN += fail.residentBytesPerDpu * replacement.size();
        restoreEvt = restore;
    }
    for (MigratedShard &m : fail.shards) {
        m.home = replacement;
        migrated.push_back(std::move(m));
    }

    // Every shard the dead rank hosted — sampled or not — now lives on
    // the replacement member at the same within-rank offset, so shipped
    // rounds keep scattering its slice to the member that runs it.
    const core::DpuSet dead_set = sys.ranks({fail.rank});
    for (unsigned &home : shardHome) {
        if (dead_set.contains(home))
            home = replacement.memberAt(dead_set.indexOf(home)
                                        % replacement.size());
    }

    const double repaired = std::max(
        restore != core::kNoEvent ? queue.eventSeconds(restore)
                                  : std::max(now, fail.failSec),
        fail.failSec);
    mttrSum += repaired - fail.failSec;
    downtime += repaired - fail.failSec;
}

GraphUpdateTask::GraphUpdateTask(const GraphUpdateConfig &cfg,
                                 core::CommandQueue &queue,
                                 const core::DpuSet &partition,
                                 core::TenantId tenant)
    : impl_(std::make_unique<Impl>(cfg, queue, partition, tenant))
{
}

GraphUpdateTask::~GraphUpdateTask() = default;

bool
GraphUpdateTask::done() const
{
    return impl_->round >= impl_->rounds && !impl_->parked
        && impl_->pendingFails.empty();
}

double
GraphUpdateTask::clockSeconds() const
{
    return impl_->now;
}

void
GraphUpdateTask::step()
{
    PIM_ASSERT(!done(), "step() after the last update round");
    PIM_ASSERT(impl_->pendingFails.empty(),
               "step() while waiting for a replacement rank");
    impl_->step();
}

bool
GraphUpdateTask::onRankFailed(unsigned rank, double failSec)
{
    impl_->onRankFailed(rank, failSec);
    return true;
}

void
GraphUpdateTask::onReplacementGranted(const core::DpuSet &replacement)
{
    impl_->onReplacementGranted(replacement);
}

GraphUpdateResult
GraphUpdateTask::result() const
{
    PIM_ASSERT(done(), "result() before the last update round");
    GraphUpdateResult out = impl_->res;
    mergeOutcomes(out, impl_->sys.config().dpuCfg, impl_->outcomes);
    out.wallSeconds = std::max(0.0, impl_->now - impl_->buildDoneSec);
    out.rankFailures = impl_->failures;
    out.reExecutedRounds = impl_->reExec;
    out.restoreBytes = impl_->restoreBytesN;
    out.mttrMeanSec = impl_->recovered > 0
        ? impl_->mttrSum / impl_->recovered
        : 0.0;
    out.availability = out.wallSeconds > 0.0
        ? std::clamp(1.0 - impl_->downtime / out.wallSeconds, 0.0, 1.0)
        : 1.0;
    return out;
}

GraphUpdateResult
runGraphUpdate(const GraphUpdateConfig &cfg)
{
    PIM_ASSERT(cfg.numDpus >= 1, "need at least one DPU");

    // The dataset is sharded across the whole system; the unified
    // runtime materializes the sampled shards and executes the task's
    // launches on its host pool.
    core::PimSystemConfig scfg;
    scfg.numDpus = cfg.numDpus;
    scfg.sampleDpus = cfg.sampleDpus;
    scfg.simThreads = cfg.simThreads;
    core::PimSystem sys(scfg);
    core::CommandQueue queue(sys);
    if (cfg.recorder != nullptr)
        queue.attachRecorder(cfg.recorder);
    if (cfg.metrics != nullptr)
        queue.attachMetrics(cfg.metrics);

    core::Session session(queue, cfg.faultSpec, cfg.faultSeed);
    core::DpuSet part = sys.all();
    if (session.rankFaults()) {
        // Hold one rank back so a dead rank's replacement exists.
        part = session.acquireRest("graph", 1, 1);
    }
    GraphUpdateTask task(cfg, queue, part);
    session.add("graph", task);
    session.run();
    return task.result();
}

} // namespace pim::workloads::graph

/**
 * @file
 * Multi-tenant rank co-scheduling: the disaggregated LLM serving
 * pipeline and the streaming graph-update driver co-resident on ONE
 * PimSystem / ONE CommandQueue, with rank ownership arbitrated by
 * core::RankScheduler. Each tenant runs on its own rank partition and
 * its own host lane; the host<->PIM bus is the shared resource, so the
 * co-run quantifies bus-induced interference against solo baselines of
 * the *same* partitions on otherwise idle systems:
 *
 *   - serving tenant: TPOT / TTFT percentile degradation (%),
 *   - graph tenant:   update-round wall-time degradation (%),
 *   - both tenants:   SLO attainment (percent of samples within the
 *     --slo-ttft-ms / --slo-tpot-ms / --slo-round-sec targets) solo vs
 *     co-resident.
 *
 * The interleaving is deterministic (advance the tenant whose pipeline
 * clock is behind; ties go to serving), and so is the runtime's
 * timeline fold, so every number here is bit-identical for any
 * PIM_SIM_THREADS / --threads value.
 *
 * With --trace/--occupancy the co-run's spans carry tenant tags and the
 * occupancy report adds per-tenant busy fractions (serving vs graph
 * attribution of rank and host lanes). --json writes the comparison
 * (plus the occupancy report when tracing is on) machine-readably;
 * CI smoke-runs this as BENCH_multi_tenant.json.
 */

#include <iostream>
#include <string>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "core/rank_scheduler.hh"
#include "core/session.hh"
#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "trace/occupancy.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/graph/update_driver.hh"
#include "workloads/llm/serving_engine.hh"

using namespace pim;

namespace {

struct TenantSetup
{
    unsigned dpus;
    unsigned threads;
    unsigned servingRanks;
    workloads::llm::ServingScheme scheme;
    workloads::llm::ServingEngineConfig serving;
    workloads::graph::GraphUpdateConfig graph;
    /** Fault injection (--mtbf/--fault-spec/--fault-seed): every run —
     *  both solos and the co-run — drives its tenants through a session
     *  over the SAME plan, so solo and co-tenant experience identical
     *  fault schedules. */
    fault::FaultSpec faultSpec{};
    uint64_t faultSeed = 23;
};

core::PimSystemConfig
systemConfig(const TenantSetup &s)
{
    core::PimSystemConfig scfg;
    scfg.numDpus = s.dpus;
    // One representative DPU per rank: both tenants launch real
    // programs and need a materialized member in every owned rank.
    scfg.samplePerRank = true;
    scfg.simThreads = s.threads;
    return scfg;
}

/** @p queue with @p obs attached (before any session reads them). */
core::CommandQueue &
observed(core::CommandQueue &queue, const trace::TraceProcess &obs)
{
    queue.attachRecorder(obs.recorder);
    queue.attachMetrics(obs.metrics);
    return queue;
}

/** One run's system, queue and session, with its observers attached. */
struct Run
{
    Run(const TenantSetup &s, const trace::TraceProcess &obs)
        : sys(systemConfig(s)), queue(sys),
          session(observed(queue, obs), s.faultSpec, s.faultSeed)
    {
    }

    core::PimSystem sys;
    core::CommandQueue queue;
    core::Session session;
};

/** Serving solo baseline: same ranks, otherwise idle system. */
workloads::llm::ServingResult
runServingSolo(const TenantSetup &s, const trace::TraceProcess &obs)
{
    Run run(s, obs);
    workloads::llm::DisaggServingTask task(
        s.scheme, s.serving, run.queue,
        run.session.scheduler().acquireRanks(s.servingRanks, "serving"));
    run.session.add("serving", task);
    run.session.run();
    return task.result();
}

/** Graph solo baseline: same ranks (the serving grant is a
 *  placeholder so the graph tenant lands on identical rank ids). */
workloads::graph::GraphUpdateResult
runGraphSolo(const TenantSetup &s, const trace::TraceProcess &obs)
{
    Run run(s, obs);
    core::RankScheduler &sched = run.session.scheduler();
    sched.acquireRanks(s.servingRanks, "reserved");
    // Hold one rank back as a spare when ranks can die, so a
    // replacement grant exists (matches the co-run's partitioning).
    workloads::graph::GraphUpdateTask task(
        s.graph, run.queue, run.session.acquireRest("graph", 1, 1));
    run.session.add("graph", task);
    run.session.run();
    sched.releaseAll("reserved");
    return task.result();
}

struct CoRunOutcome
{
    workloads::llm::ServingResult serving;
    workloads::graph::GraphUpdateResult graph;
    double joinedMakespanSec = 0.0;
    /** Ranks the graph tenant was granted at the start. */
    size_t graphRanks = 0;
};

/** Both tenants co-resident on one system/queue. One registry holds
 *  the whole co-run: queue counters split per tenant by name suffix,
 *  the serving histograms/SLOs and the graph ones under their own
 *  metric names. */
CoRunOutcome
runCoTenant(const TenantSetup &s, const trace::TraceProcess &obs)
{
    Run run(s, obs);
    core::RankScheduler &sched = run.session.scheduler();
    const core::TenantId t_serving = run.queue.addTenant("serving");
    const core::TenantId t_graph = run.queue.addTenant("graph");
    const core::DpuSet serving_part =
        sched.acquireRanks(s.servingRanks, "serving");
    // Hold one rank back as a spare when ranks can die, so the first
    // revocation's replacement grant is satisfiable.
    const core::DpuSet graph_part = run.session.acquireRest("graph", 1, 1);

    workloads::llm::DisaggServingTask serving(
        s.scheme, s.serving, run.queue, serving_part, t_serving);
    workloads::graph::GraphUpdateTask graph(s.graph, run.queue, graph_part,
                                            t_graph);
    // Serving is added first, so it wins clock ties.
    run.session.add("serving", serving);
    run.session.add("graph", graph);

    CoRunOutcome out;
    out.graphRanks = graph_part.ranks().size();
    out.joinedMakespanSec = run.session.run();
    out.serving = serving.result();
    out.graph = graph.result();
    sched.releaseAll("serving");
    sched.releaseAll("graph");
    return out;
}

double
degradationPct(double solo, double co)
{
    if (solo <= 0)
        return 0.0;
    return (co - solo) / solo * 100.0;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "dpus,tasklets,threads,json,trace,occupancy,metrics,"
                  "fault-seed,mtbf,fault-spec,serving-ranks,requests,"
                  "rounds,round-interval,update-edges,slo-ttft-ms,"
                  "slo-tpot-ms,slo-round-sec");
    util::BenchKnobs defs;
    defs.dpus = 512;
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli, defs);

    TenantSetup s;
    s.dpus = knobs.dpus;
    s.threads = knobs.threads;
    s.servingRanks = static_cast<unsigned>(
        cli.getCount("serving-ranks", 4, 1));

    s.scheme.allocator = core::AllocatorKind::PimMallocSw;
    s.serving.mode = workloads::llm::ServingMode::Disaggregated;
    s.serving.base.numRequests = static_cast<unsigned>(
        cli.getCount("requests", 60, 1));
    s.serving.base.allocTasklets = knobs.tasklets;
    s.serving.simThreads = knobs.threads;
    // Per-tenant SLO targets, scored identically in the solos and the
    // co-run so the attainment delta isolates interference.
    s.serving.base.sloTtftSec =
        cli.getDouble("slo-ttft-ms", 500.0) / 1e3;
    s.serving.base.sloTpotSec =
        cli.getDouble("slo-tpot-ms", 50.0) / 1e3;

    s.graph.structure = workloads::graph::StructureKind::LinkedList;
    s.graph.allocator = core::AllocatorKind::PimMallocSw;
    s.graph.numDpus = knobs.dpus;
    s.graph.tasklets = knobs.tasklets;
    s.graph.simThreads = knobs.threads;
    // Streaming ingest: many small rounds interleave with serving steps
    // and ship their edges over the shared bus.
    s.graph.updateRounds = static_cast<unsigned>(
        cli.getCount("rounds", 16, 1));
    s.graph.shipUpdates = true;
    s.graph.roundIntervalSec = cli.getDouble("round-interval", 0.25);
    s.graph.gen.numNodes = 50000;
    s.graph.gen.numEdges = 250000;
    s.graph.maxUpdateEdges = static_cast<uint64_t>(
        cli.getCount("update-edges", 0, 0));
    s.graph.sloRoundSec = cli.getDouble("slo-round-sec", 0.5);

    // Fault injection: the same plan is replayed in the solos and the
    // co-run (each run attaches its own injector); the co-run
    // arbitrates revocation + replacement through the RankScheduler.
    s.faultSpec = fault::FaultSpec::fromKnobs(knobs.faultSpec,
                                              knobs.mtbf);
    s.faultSeed = knobs.faultSeed;

    // Metrics are always on: the SLO attainment comparison is part of
    // this bench's headline output, not an optional extra. --metrics
    // additionally prints the full summary tables.
    trace::ObserverSet obs(knobs.wantsTrace(), /*metrics=*/true);
    const trace::TraceProcess solo_s_obs = obs.add("serving solo");
    const trace::TraceProcess solo_g_obs = obs.add("graph solo");
    const trace::TraceProcess co_obs = obs.add("co-tenant");

    const workloads::llm::ServingResult solo_s =
        runServingSolo(s, solo_s_obs);
    const workloads::graph::GraphUpdateResult solo_g =
        runGraphSolo(s, solo_g_obs);
    const CoRunOutcome co = runCoTenant(s, co_obs);

    const double d_tpot50 =
        degradationPct(solo_s.tpotP50Ms, co.serving.tpotP50Ms);
    const double d_tpot99 =
        degradationPct(solo_s.tpotP99Ms, co.serving.tpotP99Ms);
    const double d_ttft95 =
        degradationPct(solo_s.ttftP95Ms, co.serving.ttftP95Ms);
    const double d_wall =
        degradationPct(solo_g.wallSeconds, co.graph.wallSeconds);

    util::Table tbl("Multi-tenant co-scheduling: solo vs co-resident "
                    "(shared bus, disjoint ranks)");
    tbl.setHeader({"Metric", "Solo", "Co-tenant", "Degradation %"});
    tbl.addRow({"Serving TPOT p50 (ms)",
                util::Table::num(solo_s.tpotP50Ms, 3),
                util::Table::num(co.serving.tpotP50Ms, 3),
                util::Table::num(d_tpot50, 2)});
    tbl.addRow({"Serving TPOT p99 (ms)",
                util::Table::num(solo_s.tpotP99Ms, 3),
                util::Table::num(co.serving.tpotP99Ms, 3),
                util::Table::num(d_tpot99, 2)});
    tbl.addRow({"Serving TTFT p95 (ms)",
                util::Table::num(solo_s.ttftP95Ms, 3),
                util::Table::num(co.serving.ttftP95Ms, 3),
                util::Table::num(d_ttft95, 2)});
    tbl.addRow({"Serving makespan (s)",
                util::Table::num(solo_s.makespanSec, 4),
                util::Table::num(co.serving.makespanSec, 4),
                util::Table::num(degradationPct(solo_s.makespanSec,
                                                co.serving.makespanSec),
                                 2)});
    tbl.addRow({"Graph rounds wall time (s)",
                util::Table::num(solo_g.wallSeconds, 4),
                util::Table::num(co.graph.wallSeconds, 4),
                util::Table::num(d_wall, 2)});
    tbl.addRow({"Graph update Medges/s (cycles)",
                util::Table::num(solo_g.millionEdgesPerSec, 2),
                util::Table::num(co.graph.millionEdgesPerSec, 2),
                "0.00"});
    // Per-tenant SLO attainment (percent of samples within target) in
    // the solo baseline vs the co-run; the delta is in percentage
    // points, negative = the co-run misses more deadlines.
    const telemetry::Registry *co_reg = co_obs.metrics;
    auto addSloRow = [&](const char *label,
                         const telemetry::Registry *solo_reg,
                         const std::string &metric) {
        if (!solo_reg->slo().tracks(metric)
            || !co_reg->slo().tracks(metric))
            return;
        const double solo_att =
            solo_reg->slo().score(metric).attainmentPct();
        const double co_att = co_reg->slo().score(metric).attainmentPct();
        tbl.addRow({label, util::Table::num(solo_att, 2),
                    util::Table::num(co_att, 2),
                    util::Table::num(co_att - solo_att, 2)});
    };
    addSloRow("SLO attainment: serving TTFT (%)", solo_s_obs.metrics,
              "serving.ttft");
    addSloRow("SLO attainment: serving TPOT (%)", solo_s_obs.metrics,
              "serving.tpot");
    addSloRow("SLO attainment: graph round (%)", solo_g_obs.metrics,
              "graph.round");
    tbl.print(std::cout);
    std::cout << "\nPartitions: serving " << co.serving.prefillRanks
              << "+" << co.serving.decodeRanks << " ranks (prefill+"
              << "decode), graph " << co.graphRanks
              << " ranks; joined co-run makespan "
              << co.joinedMakespanSec
              << " s.\nExpected shape: the DPU-cycle update throughput "
                 "is interference-free (disjoint ranks), while the "
                 "queue-timeline metrics degrade only through bus "
                 "sharing.\n";

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath))
        return 1;

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("dpus").value(knobs.dpus);
            j.key("servingRanks").value(s.servingRanks);
            j.key("requests").value(s.serving.base.numRequests);
            j.key("updateRounds").value(s.graph.updateRounds);
            j.key("roundIntervalSec").value(s.graph.roundIntervalSec);
            j.key("serving").beginObject();
            j.key("soloTpotP50Ms").value(solo_s.tpotP50Ms);
            j.key("coTpotP50Ms").value(co.serving.tpotP50Ms);
            j.key("tpotP50DegradationPct").value(d_tpot50);
            j.key("soloTpotP99Ms").value(solo_s.tpotP99Ms);
            j.key("coTpotP99Ms").value(co.serving.tpotP99Ms);
            j.key("tpotP99DegradationPct").value(d_tpot99);
            j.key("soloTtftP95Ms").value(solo_s.ttftP95Ms);
            j.key("coTtftP95Ms").value(co.serving.ttftP95Ms);
            j.key("ttftP95DegradationPct").value(d_ttft95);
            j.key("soloMakespanSec").value(solo_s.makespanSec);
            j.key("coMakespanSec").value(co.serving.makespanSec);
            j.key("prefillRanks").value(co.serving.prefillRanks);
            j.key("decodeRanks").value(co.serving.decodeRanks);
            j.endObject();
            j.key("graph").beginObject();
            j.key("soloWallSeconds").value(solo_g.wallSeconds);
            j.key("coWallSeconds").value(co.graph.wallSeconds);
            j.key("wallDegradationPct").value(d_wall);
            j.key("millionEdgesPerSec").value(co.graph.millionEdgesPerSec);
            j.key("updateEdgesTotal").value(co.graph.updateEdgesTotal);
            j.endObject();
            j.key("joinedMakespanSec").value(co.joinedMakespanSec);
            j.key("slo").beginObject();
            auto emitSlo = [&](const char *key,
                               const telemetry::Registry *solo_reg,
                               const std::string &metric) {
                if (!solo_reg->slo().tracks(metric)
                    || !co_reg->slo().tracks(metric))
                    return;
                const telemetry::SloScore &ss = solo_reg->slo().score(metric);
                const telemetry::SloScore &cs = co_reg->slo().score(metric);
                j.key(key).beginObject();
                j.key("targetSec").value(ss.target);
                j.key("soloAttainmentPct").value(ss.attainmentPct());
                j.key("coAttainmentPct").value(cs.attainmentPct());
                j.key("soloViolations").value(ss.violations);
                j.key("coViolations").value(cs.violations);
                j.key("coWorstExcursion").value(cs.worstExcursion);
                j.endObject();
            };
            emitSlo("servingTtft", solo_s_obs.metrics, "serving.ttft");
            emitSlo("servingTpot", solo_s_obs.metrics, "serving.tpot");
            emitSlo("graphRound", solo_g_obs.metrics, "graph.round");
            j.endObject();
            if (s.faultSpec.enabled()) {
                j.key("faults").beginObject();
                j.key("faultSeed").value(s.faultSeed);
                j.key("servingRankFailures").value(co.serving.rankFailures);
                j.key("servingLostRequests").value(co.serving.lostRequests);
                j.key("servingRecoveryBytes")
                    .value(co.serving.recoveryBytes);
                j.key("servingAvailability")
                    .value(co.serving.availability);
                j.key("graphRankFailures").value(co.graph.rankFailures);
                j.key("graphReExecutedRounds")
                    .value(co.graph.reExecutedRounds);
                j.key("graphRestoreBytes").value(co.graph.restoreBytes);
                j.key("graphAvailability").value(co.graph.availability);
                j.endObject();
            }
            if (co_obs.recorder != nullptr) {
                // The co-run's occupancy report carries the per-tenant
                // attribution ("tenants" array) computed from span tags.
                j.key("coOccupancy");
                trace::analyzeOccupancy(*co_obs.recorder).writeJson(j);
            }
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "multi_tenant", &obs, fields))
            return 1;
    }
    return 0;
}

/**
 * @file
 * Reproduces Fig 17 (dynamic graph updates on a loc-gowalla-scale
 * synthetic dataset):
 *  (a) update throughput + cycle breakdown for the static CSR baseline
 *      and both dynamic structures under all three allocators;
 *  (b) distribution of pimMalloc() latency (percentiles);
 *  (c) allocation latency over time (sampled series);
 *  (d) normalized allocator-metadata DRAM transfer size, SW vs HW/SW.
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <vector>

#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::workloads::graph;

namespace {

GraphUpdateConfig
baseConfig(StructureKind s, core::AllocatorKind a,
           const util::BenchKnobs &knobs)
{
    GraphUpdateConfig cfg;
    cfg.structure = s;
    cfg.allocator = a;
    cfg.numDpus = knobs.dpus;
    cfg.sampleDpus = knobs.sample;
    cfg.simThreads = knobs.threads;
    cfg.tasklets = knobs.tasklets;
    cfg.faultSpec = fault::FaultSpec::fromKnobs(knobs.faultSpec,
                                                knobs.mtbf);
    cfg.faultSeed = knobs.faultSeed;
    // loc-gowalla scale: 196,591 nodes / 950,327 edges.
    cfg.gen.numNodes = 196591;
    cfg.gen.numEdges = 950327;
    cfg.traceEvents = true;
    return cfg;
}

struct NamedRun
{
    std::string name;
    GraphUpdateResult result;
};

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "dpus,sample,tasklets,threads,json,trace,occupancy,"
                  "metrics,fault-seed,mtbf,fault-spec");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);

    // One recorder + one metrics registry per configuration.
    trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
    auto tracedConfig = [&](StructureKind s, core::AllocatorKind a,
                            const std::string &name) {
        GraphUpdateConfig cfg = baseConfig(s, a, knobs);
        const trace::TraceProcess run = obs.add(name);
        cfg.recorder = run.recorder;
        cfg.metrics = run.metrics;
        return cfg;
    };

    std::vector<NamedRun> runs;
    runs.push_back({"Static (CSR)",
                    runGraphUpdate(tracedConfig(
                        StructureKind::StaticCsr,
                        core::AllocatorKind::PimMallocSw,
                        "Static (CSR)"))});
    const std::pair<const char *, StructureKind> structures[] = {
        {"LinkedList", StructureKind::LinkedList},
        {"VarArray", StructureKind::VarArray}};
    for (const auto &[sname, s] : structures) {
        for (auto kind : core::kMainKinds) {
            std::string name = std::string(sname) + " + "
                + core::allocatorKindName(kind);
            runs.push_back(
                {name, runGraphUpdate(tracedConfig(s, kind, name))});
        }
    }

    util::Table thr("Fig 17(a): graph update throughput and latency "
                    "breakdown");
    thr.setHeader({"Configuration", "Medges/s", "Run %", "Busy-wait %",
                   "Idle(Mem) %", "Idle(Etc) %"});
    for (const auto &r : runs) {
        const auto &bd = r.result.breakdown;
        thr.addRow({r.name,
                    util::Table::num(r.result.millionEdgesPerSec, 2),
                    util::Table::num(
                        bd.fraction(sim::CycleKind::Run) * 100, 1),
                    util::Table::num(
                        bd.fraction(sim::CycleKind::BusyWait) * 100, 1),
                    util::Table::num(
                        bd.fraction(sim::CycleKind::IdleMemory) * 100, 1),
                    util::Table::num(
                        bd.fraction(sim::CycleKind::IdleEtc) * 100, 1)});
    }
    thr.print(std::cout);
    std::cout << "\n";

    const sim::DpuConfig dcfg;
    util::Table lat("Fig 17(b): pimMalloc() latency distribution during "
                    "updates (us)");
    lat.setHeader({"Configuration", "p50", "p95", "p99", "mean"});
    for (const auto &r : runs) {
        if (r.result.allocStats.mallocCalls == 0)
            continue;
        const auto &p = r.result.allocStats.latency;
        lat.addRow({r.name,
                    util::Table::num(dcfg.cyclesToMicros(
                        static_cast<uint64_t>(p.p50())), 2),
                    util::Table::num(dcfg.cyclesToMicros(
                        static_cast<uint64_t>(p.p95())), 2),
                    util::Table::num(dcfg.cyclesToMicros(
                        static_cast<uint64_t>(p.p99())), 2),
                    util::Table::num(dcfg.cyclesToMicros(
                        static_cast<uint64_t>(p.mean())), 2)});
    }
    lat.print(std::cout);
    std::cout << "\n";

    util::Table series("Fig 17(c): allocation latency over time "
                       "(LinkedList, every 50th event, us)");
    series.setHeader({"Event #", "Straw-man", "PIM-malloc-SW",
                      "PIM-malloc-HW/SW"});
    auto sorted_events = [](const GraphUpdateResult &r) {
        auto ev = r.allocStats.events;
        std::sort(ev.begin(), ev.end(),
                  [](const auto &a, const auto &b) {
                      return a.startCycle < b.startCycle;
                  });
        return ev;
    };
    const auto e_straw = sorted_events(runs[1].result);
    const auto e_sw = sorted_events(runs[2].result);
    const auto e_hw = sorted_events(runs[3].result);
    const size_t n = std::min({e_straw.size(), e_sw.size(), e_hw.size()});
    const size_t step = std::max<size_t>(1, n / 16);
    for (size_t i = 0; i < n; i += step) {
        series.addRow({util::Table::num(uint64_t{i}),
                       util::Table::num(dcfg.cyclesToMicros(
                           e_straw[i].latencyCycles), 1),
                       util::Table::num(dcfg.cyclesToMicros(
                           e_sw[i].latencyCycles), 1),
                       util::Table::num(dcfg.cyclesToMicros(
                           e_hw[i].latencyCycles), 1)});
    }
    series.print(std::cout);
    std::cout << "\n";

    // Fig 17(d) plots aggregate DRAM (MRAM<->WRAM) transfer size: the
    // workload's data traffic is common to both designs, so the ~30%
    // reduction comes from the metadata share the buddy cache removes.
    util::Table traffic("Fig 17(d): aggregate DRAM transfer size, "
                        "normalized to PIM-malloc-SW");
    traffic.setHeader({"Structure", "PIM-malloc-SW", "PIM-malloc-HW/SW",
                       "SW metadata share %"});
    for (size_t base : {size_t{1}, size_t{4}}) {
        const auto &sw_t = runs[base + 1].result.traffic;
        const auto &hw_t = runs[base + 2].result.traffic;
        traffic.addRow({base == 1 ? "LinkedList" : "VarArray", "1.00",
                        util::Table::num(
                            static_cast<double>(hw_t.totalBytes())
                                / static_cast<double>(sw_t.totalBytes()),
                            2),
                        util::Table::num(
                            100.0
                                * static_cast<double>(sw_t.metadataBytes())
                                / static_cast<double>(sw_t.totalBytes()),
                            1)});
    }
    traffic.print(std::cout);
    std::cout << "\nExpected shape: straw-man below static; HW/SW best "
                 "(paper: 7.1x and 32x over static for the two "
                 "structures); HW/SW moves ~30% less metadata than SW "
                 "(paper Fig 17(d)).\n";

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("dpus").value(knobs.dpus);
            j.key("sample").value(knobs.sample);
            j.key("tasklets").value(knobs.tasklets);
            j.key("configurations").beginArray();
            for (const auto &r : runs) {
                const auto &res = r.result;
                j.beginObject();
                j.key("name").value(r.name);
                j.key("medges_per_sec").value(res.millionEdgesPerSec);
                j.key("update_seconds").value(res.updateSeconds);
                j.key("update_edges").value(res.updateEdgesTotal);
                j.key("run_frac")
                    .value(res.breakdown.fraction(sim::CycleKind::Run));
                j.key("busy_wait_frac")
                    .value(res.breakdown.fraction(sim::CycleKind::BusyWait));
                j.key("idle_mem_frac")
                    .value(res.breakdown.fraction(
                        sim::CycleKind::IdleMemory));
                j.key("malloc_calls").value(res.allocStats.mallocCalls);
                j.key("avg_alloc_latency_us").value(res.avgAllocLatencyUs);
                j.key("peak_fragmentation").value(res.fragmentation);
                j.key("total_traffic_bytes").value(res.traffic.totalBytes());
                j.key("metadata_traffic_bytes")
                    .value(res.traffic.metadataBytes());
                j.endObject();
            }
            j.endArray();
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fig17_graph_update", &obs, fields))
            return 1;
        std::cout << "\nJSON written to " << knobs.jsonPath << "\n";
    }

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath))
        return 1;
    return 0;
}

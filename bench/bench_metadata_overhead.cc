/**
 * @file
 * Reproduces Section VI-E: metadata storage overhead of PIM-malloc vs
 * the straw-man design — the hierarchical structure shrinks the buddy
 * tree from 21 to 14 levels (512 KB -> 4 KB of per-bank metadata), and
 * the thread caches' bitmap records stay small across the workloads.
 */

#include <iostream>

#include "alloc/pim_malloc.hh"
#include "alloc/straw_man.hh"
#include "sim/dpu.hh"
#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::workloads;

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "dpus,sample,threads,json,trace,occupancy,metrics");
    util::BenchKnobs defs;
    defs.sample = 1;
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli, defs);

    util::Table fixed("Section VI-E: fixed allocator metadata per DRAM "
                      "bank");
    fixed.setHeader({"Design", "Buddy tree levels", "Buddy metadata"});
    {
        sim::Dpu d1, d2;
        alloc::StrawManAllocator straw(d1, alloc::StrawManConfig{});
        alloc::PimMallocAllocator pm(d2, alloc::PimMallocConfig{});
        fixed.addRow({"Straw-man (32 MB / 32 B)",
                      util::Table::num(uint64_t{straw.tree().levels()}),
                      util::Table::num(straw.metadataBytes() >> 10)
                          + " KB"});
        fixed.addRow({"PIM-malloc (32 MB / 4 KB backend)",
                      util::Table::num(uint64_t{pm.backend().levels()}),
                      util::Table::num(pm.backendMetadataBytes() >> 10)
                          + " KB"});
    }
    fixed.print(std::cout);
    std::cout << "\n";

    trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
    util::Table per_wl("Section VI-E: PIM-malloc metadata per DPU under "
                       "the paper's workloads");
    per_wl.setHeader({"Workload", "Backend (KB)", "Thread-cache records "
                      "(KB)", "Total (KB)"});
    for (const auto &[name, structure] :
         {std::pair<const char *, graph::StructureKind>{
              "Dynamic graph update (array of linked list)",
              graph::StructureKind::LinkedList},
          {"Dynamic graph update (variable sized array)",
           graph::StructureKind::VarArray}}) {
        graph::GraphUpdateConfig cfg;
        cfg.structure = structure;
        cfg.allocator = core::AllocatorKind::PimMallocSw;
        cfg.numDpus = knobs.dpus;
        cfg.sampleDpus = knobs.sample;
        cfg.gen.numNodes = 196591;
        cfg.gen.numEdges = 950327;
        cfg.simThreads = knobs.threads;
        const trace::TraceProcess run = obs.add(name);
        cfg.recorder = run.recorder;
        cfg.metrics = run.metrics;
        const auto r = graph::runGraphUpdate(cfg);
        const double total_kb =
            static_cast<double>(r.metadataBytes) / 1024.0;
        per_wl.addRow({name, "4.0",
                       util::Table::num(total_kb - 4.0, 2),
                       util::Table::num(total_kb, 2)});
    }
    per_wl.print(std::cout);
    std::cout << "\nPaper: 4 KB of buddy metadata per bank; ~5.1 KB / "
                 "5 KB / 5.2 KB total for the three workloads.\n";

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath))
        return 1;

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("dpus").value(knobs.dpus);
            j.key("sample").value(knobs.sample);
            j.key("fixedMetadata");
            fixed.writeJson(j);
            j.key("perWorkload");
            per_wl.writeJson(j);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "metadata_overhead", &obs, fields))
            return 1;
    }
    return 0;
}

/**
 * @file
 * Reproduces Fig 3(c): graph-update slowdown of the static CSR
 * representation vs a dynamic structure (array of linked lists on
 * PIM-malloc-SW) as the pre-update graph grows from Small to Large
 * while the number of newly added edges stays constant. Values are
 * normalized to Static/Small, as in the paper.
 */

#include <iostream>

#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim;
using namespace pim::workloads::graph;

namespace {

double
updateSeconds(StructureKind structure, unsigned scale,
              const util::BenchKnobs &knobs, const trace::TraceProcess &run)
{
    GraphUpdateConfig cfg;
    cfg.structure = structure;
    cfg.allocator = core::AllocatorKind::PimMallocSw;
    cfg.numDpus = knobs.dpus;
    cfg.sampleDpus = knobs.sample;
    cfg.tasklets = knobs.tasklets;
    cfg.gen.numNodes = 12000 * scale;
    cfg.gen.numEdges = 60000ull * scale;
    cfg.gen.seed = 42;
    cfg.maxUpdateEdges = 2000; // fixed #new edges across sizes
    cfg.simThreads = knobs.threads;
    cfg.recorder = run.recorder;
    cfg.metrics = run.metrics;
    return runGraphUpdate(cfg).updateSeconds;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "dpus,sample,tasklets,threads,json,trace,occupancy,"
                  "metrics");
    util::BenchKnobs defs;
    defs.dpus = 32;
    defs.sample = 32;
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli, defs);

    trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
    const std::pair<const char *, unsigned> sizes[] = {
        {"Small", 1}, {"Medium", 2}, {"Large", 4}};

    const double base = updateSeconds(StructureKind::StaticCsr, 1, knobs,
                                      obs.add("Static/Small base"));

    util::Table table("Fig 3(c): update slowdown vs pre-update graph size "
                      "(normalized to Static/Small)");
    table.setHeader({"Pre-update size", "Static (CSR)",
                     "Dynamic (linked list)"});
    for (const auto &[name, scale] : sizes) {
        const double stat =
            updateSeconds(StructureKind::StaticCsr, scale, knobs,
                          obs.add(std::string("Static/") + name));
        const double dyn =
            updateSeconds(StructureKind::LinkedList, scale, knobs,
                          obs.add(std::string("Dynamic/") + name));
        table.addRow({name, util::Table::num(stat / base, 2),
                      util::Table::num(dyn / base, 2)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: Static grows with the pre-update "
                 "graph; Dynamic stays flat (paper: static reaches ~2-3x "
                 "while dynamic is size-independent).\n";

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath))
        return 1;

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("dpus").value(knobs.dpus);
            j.key("sample").value(knobs.sample);
            j.key("tasklets").value(knobs.tasklets);
            j.key("table");
            table.writeJson(j);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fig03_graph_motivation", &obs, fields))
            return 1;
    }
    return 0;
}

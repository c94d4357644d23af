/**
 * @file
 * Reproduces Fig 16: PIM-malloc-HW/SW's speedup over PIM-malloc-SW and
 * the buddy cache hit rate as the cache capacity sweeps from 16 B to
 * 256 B (16 tasklets, 4 KB requests — the backend-bound microbenchmark).
 */

#include <iostream>

#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/microbench.hh"

using namespace pim;
using namespace pim::workloads;

namespace {

MicrobenchResult
run(core::AllocatorKind kind, unsigned cache_entries, unsigned tasklets,
    const trace::TraceProcess &observers)
{
    MicrobenchConfig cfg;
    cfg.allocator = kind;
    cfg.tasklets = tasklets;
    cfg.allocsPerTasklet = 128;
    cfg.allocSize = 4096;
    cfg.dpuCfg.buddyCache.entries = cache_entries;
    cfg.recorder = observers.recorder;
    cfg.metrics = observers.metrics;
    return runMicrobench(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv, "tasklets,json,trace,occupancy,metrics");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);

    trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
    const double sw = run(core::AllocatorKind::PimMallocSw, 16,
                          knobs.tasklets, obs.add("SW baseline"))
                          .avgLatencyUs;

    util::Table table("Fig 16: HW/SW speedup over SW and buddy-cache hit "
                      "rate vs cache size (16 tasklets, 4 KB requests)");
    table.setHeader({"Buddy cache size", "Speedup over SW", "Hit rate %"});
    for (unsigned bytes : {16u, 32u, 64u, 128u, 256u}) {
        const std::string name = "HW/SW " + std::to_string(bytes) + " B";
        const auto r = run(core::AllocatorKind::PimMallocHwSw, bytes / 4,
                           knobs.tasklets, obs.add(name));
        table.addRow({std::to_string(bytes) + " B",
                      util::Table::num(sw / r.avgLatencyUs, 2) + "x",
                      util::Table::num(r.cacheStats.hitRate() * 100, 1)});
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: both speedup and hit rate saturate at "
                 "64 B — enough to hold the metadata of the frequently "
                 "traversed tree path (paper Fig 16; 99% hit rate).\n";

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath))
        return 1;

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("tasklets").value(knobs.tasklets);
            j.key("table");
            table.writeJson(j);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fig16_cache_sweep", &obs, fields))
            return 1;
    }
    return 0;
}

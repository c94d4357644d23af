/**
 * @file
 * Reproduces Fig 15: average memory allocation latency of the straw-man
 * PIM buddy allocator, PIM-malloc-SW, and PIM-malloc-HW/SW for 32 B,
 * 256 B, and 4 KB requests under (a) a single tasklet (no contention)
 * and (b) 16 tasklets (lock contention). Each tasklet issues 128
 * allocations. Also prints the headline speedups (paper: PIM-malloc-SW
 * 66x over the straw-man; HW/SW +31% over SW).
 *
 * --json <file> emits the cases and headline geomeans as a BENCH_*.json
 * artifact, like the other headline figure benches.
 */

#include <iostream>
#include <vector>

#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "workloads/microbench.hh"

using namespace pim;

namespace {

double
avgLatency(core::AllocatorKind kind, unsigned tasklets, uint32_t size,
           telemetry::Registry *met)
{
    workloads::MicrobenchConfig cfg;
    cfg.allocator = kind;
    cfg.tasklets = tasklets;
    cfg.allocsPerTasklet = 128;
    cfg.allocSize = size;
    cfg.freeEachAlloc = false;
    cfg.metrics = met;
    return workloads::runMicrobench(cfg).avgLatencyUs;
}

struct Case
{
    unsigned tasklets;
    uint32_t size;
    double strawUs;
    double swUs;
    double hwswUs;
};

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv, "json,metrics");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);

    const uint32_t sizes[] = {32, 256, 4096};
    const unsigned thread_counts[] = {1, 16};
    trace::ObserverSet obs(/*trace=*/false, knobs.metrics);

    std::vector<Case> cases;
    std::vector<double> sw_speedups;   // straw-man / SW
    std::vector<double> hwsw_speedups; // SW / HW-SW

    for (unsigned tasklets : thread_counts) {
        util::Table table(
            std::string("Fig 15(") + (tasklets == 1 ? "a" : "b")
            + "): average allocation latency (us), "
            + std::to_string(tasklets) + " tasklet(s) x 128 allocs");
        table.setHeader({"Alloc size", "Straw-man", "PIM-malloc-SW",
                         "PIM-malloc-HW/SW", "SW speedup", "HW/SW vs SW"});
        for (uint32_t size : sizes) {
            const std::string tag = std::to_string(tasklets) + "T/"
                + std::to_string(size) + "B ";
            const double straw =
                avgLatency(core::AllocatorKind::StrawMan, tasklets, size,
                           obs.add(tag + "straw-man").metrics);
            const double sw =
                avgLatency(core::AllocatorKind::PimMallocSw, tasklets,
                           size, obs.add(tag + "SW").metrics);
            const double hwsw = avgLatency(
                core::AllocatorKind::PimMallocHwSw, tasklets, size,
                obs.add(tag + "HW/SW").metrics);
            cases.push_back({tasklets, size, straw, sw, hwsw});
            sw_speedups.push_back(straw / sw);
            hwsw_speedups.push_back(sw / hwsw);
            table.addRow({std::to_string(size) + " B",
                          util::Table::num(straw, 2),
                          util::Table::num(sw, 2),
                          util::Table::num(hwsw, 2),
                          util::Table::num(straw / sw, 1) + "x",
                          util::Table::num((sw / hwsw - 1.0) * 100.0, 1)
                              + "%"});
        }
        table.print(std::cout);
        std::cout << "\n";
    }

    const double sw_geomean = util::geomean(sw_speedups);
    const double hwsw_geomean = util::geomean(hwsw_speedups);
    util::Table headline("Headline speedups (paper: 66x and +31%)");
    headline.setHeader({"Metric", "Measured"});
    headline.addRow({"PIM-malloc-SW vs straw-man (geomean)",
                     util::Table::num(sw_geomean, 1) + "x"});
    std::string hwsw_gain = "+";
    hwsw_gain += util::Table::num((hwsw_geomean - 1.0) * 100.0, 1);
    hwsw_gain += "%";
    headline.addRow({"PIM-malloc-HW/SW vs SW (geomean)", hwsw_gain});
    headline.print(std::cout);

    trace::emitReports(std::cout, obs, /*print_occupancy=*/false,
                       knobs.metrics, /*trace_path=*/"");

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("allocs_per_tasklet").value(128);
            j.key("cases").beginArray();
            for (const Case &c : cases) {
                j.beginObject();
                j.key("tasklets").value(c.tasklets);
                j.key("alloc_size").value(c.size);
                j.key("straw_man_us").value(c.strawUs);
                j.key("pim_malloc_sw_us").value(c.swUs);
                j.key("pim_malloc_hwsw_us").value(c.hwswUs);
                j.key("sw_speedup").value(c.strawUs / c.swUs);
                j.key("hwsw_vs_sw").value(c.swUs / c.hwswUs);
                j.endObject();
            }
            j.endArray();
            j.key("sw_speedup_geomean").value(sw_geomean);
            j.key("hwsw_vs_sw_geomean").value(hwsw_geomean);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fig15_microbench", &obs, fields))
            return 1;
        std::cout << "\nJSON written to " << knobs.jsonPath << "\n";
    }
    return 0;
}

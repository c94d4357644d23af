/**
 * @file
 * Reproduces Fig 7: slowdown of the straw-man PIM buddy allocator as
 * the heap size (32 KB .. 32 MB) and the (de)allocation size
 * (32 B .. 2 KB) vary, measured with a single-tasklet program doing
 * consecutive pimMalloc/pimFree pairs. Normalized to (heap 32 KB,
 * alloc 2 KB), exactly like the paper's heat map.
 */

#include <iostream>
#include <iterator>
#include <vector>

#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/microbench.hh"

using namespace pim;
using namespace pim::workloads;

namespace {

double
avgLatencyUs(uint32_t heap_bytes, uint32_t alloc_size, unsigned tasklets,
             trace::Recorder *rec, telemetry::Registry *met)
{
    MicrobenchConfig cfg;
    cfg.allocator = core::AllocatorKind::StrawMan;
    cfg.tasklets = tasklets;
    cfg.allocsPerTasklet = 64;
    cfg.allocSize = alloc_size;
    cfg.freeEachAlloc = true;
    cfg.overrides.heapBytes = heap_bytes;
    cfg.recorder = rec;
    cfg.metrics = met;
    return runMicrobench(cfg).avgLatencyUs;
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv, util::benchKnobNames());
    util::BenchKnobs defs;
    defs.dpus = 1;
    defs.sample = 1;
    defs.tasklets = 1; // the paper's single-tasklet sweep
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli, defs);

    const uint32_t heaps[] = {32u << 10, 128u << 10, 512u << 10,
                              2u << 20, 8u << 20, 32u << 20};
    const uint32_t sizes[] = {32, 128, 512, 1024, 2048};

    trace::RecorderSet recorders(knobs.wantsTrace());
    telemetry::MetricSet metrics(knobs.wantsMetrics());
    const double base =
        avgLatencyUs(32u << 10, 2048, knobs.tasklets,
                     recorders.add("heap 32KB / alloc 2KB base"),
                     metrics.add("heap 32KB / alloc 2KB base"));

    util::Table table("Fig 7: straw-man slowdown vs heap size x "
                      "(de)allocation size (normalized to 32KB/2KB)");
    table.setHeader({"Alloc size \\ Heap", "32KB", "128KB", "512KB", "2MB",
                     "8MB", "32MB"});
    for (auto it = std::rbegin(sizes); it != std::rend(sizes); ++it) {
        const uint32_t size = *it;
        std::vector<std::string> row{std::to_string(size) + " B"};
        for (uint32_t heap : heaps) {
            const std::string name =
                "heap " + std::to_string(heap >> 10) + "KB / alloc "
                + std::to_string(size) + "B";
            row.push_back(util::Table::num(
                avgLatencyUs(heap, size, knobs.tasklets,
                             recorders.add(name), metrics.add(name))
                    / base,
                1));
        }
        table.addRow(std::move(row));
    }
    table.print(std::cout);
    std::cout << "\nExpected shape: slowdown grows toward the "
                 "bottom-right of the paper's heat map (deeper trees: "
                 "larger heap, smaller blocks); the paper reports up to "
                 "12x at 32B/32MB.\n";

    if (!trace::emitReports(std::cout, recorders, metrics,
                            knobs.occupancy, knobs.metrics,
                            knobs.tracePath))
        return 1;

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("tasklets").value(knobs.tasklets);
            j.key("table");
            table.writeJson(j);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fig07_strawman_sweep", &metrics, fields))
            return 1;
    }
    return 0;
}

/**
 * @file
 * Quickstart: the paper's Table II API in thirty lines.
 *
 * Creates one simulated DPU, instantiates PIM-malloc-SW, runs
 * initAllocator() on tasklet 0, then has 16 tasklets allocate and free
 * MRAM blocks concurrently while the harness reports latency, service
 * levels, and fragmentation.
 *
 * Run:  ./quickstart [--tasklets=16] [--allocs=64] [--size=256]
 *                    [--allocator=sw|hwsw|straw-man|sw-lazy|hwsw-lazy]
 *                    [--trace=out.json] [--occupancy]
 *
 * --trace captures the run as Chrome/Perfetto trace-event JSON (queue
 * lanes plus per-tasklet lanes); --occupancy prints the per-lane busy
 * breakdown.
 */

#include <iostream>
#include <vector>

#include "core/allocator_factory.hh"
#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pim;

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "tasklets,allocs,size,allocator,trace,occupancy");
    // The shared-knob subset (tasklets/trace/occupancy) parses through
    // BenchKnobs so the trace knobs behave exactly like the benches'.
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);
    const unsigned tasklets = knobs.tasklets;
    const unsigned allocs =
        static_cast<unsigned>(cli.getCount("allocs", 64, 1));
    const uint32_t size = static_cast<uint32_t>(cli.getCount("size", 256, 1));
    const auto kind =
        core::allocatorKindFromName(cli.get("allocator", "sw"));

    // A one-DPU system with the UPMEM defaults (350 MHz, 24 tasklet
    // slots, 64 KB WRAM, 64 MB MRAM), driven through the command-queue
    // runtime every experiment in the repo uses.
    core::PimSystem sys(core::singleDpuConfig());
    core::CommandQueue queue(sys);
    sim::Dpu &dpu = sys.dpu(0);

    trace::Recorder recorder;
    if (knobs.wantsTrace()) {
        queue.attachRecorder(&recorder);
        dpu.attachTraceRecorder(&recorder);
    }

    core::AllocatorOverrides ov;
    ov.numTasklets = tasklets;
    auto allocator = core::makeAllocator(dpu, kind, ov);

    // Table II: initAllocator() runs once, on a designated tasklet.
    queue.launch(sys.all(), 1,
                 [&](sim::Tasklet &t, unsigned) { allocator->init(t); },
                 {.label = "initAllocator"});

    // pimMalloc()/pimFree() from every tasklet, no explicit locking.
    queue.launch(sys.all(), tasklets, [&](sim::Tasklet &t, unsigned) {
        std::vector<sim::MramAddr> mine;
        for (unsigned i = 0; i < allocs; ++i) {
            const sim::MramAddr p = allocator->malloc(t, size);
            if (p == sim::kNullAddr) {
                std::cerr << "heap exhausted at allocation " << i << "\n";
                break;
            }
            mine.push_back(p);
        }
        for (sim::MramAddr p : mine)
            allocator->free(t, p);
    }, {.label = "alloc+free"});
    queue.sync();

    const auto &st = allocator->stats();
    util::Table out(allocator->name() + " on one DPU: "
                    + std::to_string(tasklets) + " tasklets x "
                    + std::to_string(allocs) + " x "
                    + std::to_string(size) + " B");
    out.setHeader({"Metric", "Value"});
    out.addRow({"pimMalloc calls", util::Table::num(st.mallocCalls)});
    out.addRow({"pimFree calls", util::Table::num(st.freeCalls)});
    out.addRow({"Mean latency (us)",
                util::Table::num(dpu.config().cyclesToMicros(
                    static_cast<uint64_t>(st.latency.mean())), 2)});
    out.addRow({"Frontend hits %",
                util::Table::num(st.servicedFraction(
                                     alloc::ServiceLevel::Frontend) * 100,
                                 1)});
    out.addRow({"Peak fragmentation (A/U)",
                util::Table::num(st.peakFragmentation, 2)});
    out.addRow({"Allocator metadata (KB)",
                util::Table::num(
                    static_cast<double>(allocator->metadataBytes())
                        / 1024.0, 1)});
    out.addRow({"Makespan (us)",
                util::Table::num(dpu.config().cyclesToMicros(
                    dpu.lastElapsedCycles()), 1)});
    out.print(std::cout);

    if (knobs.wantsTrace()
        && !trace::emitReports(std::cout, {{"quickstart", &recorder}},
                               knobs.occupancy, knobs.tracePath))
        return 1;
    return 0;
}

/**
 * @file
 * Ablation studies for the design choices DESIGN.md calls out (beyond
 * the paper's own figures):
 *  (1) software metadata-buffer size for the straw-man allocator — the
 *      coarse flush/reload policy means a bigger window is not always
 *      better;
 *  (2) PIM-malloc span size (2/4/8/16 KB) — the paper's 4 KB balances
 *      refill frequency against pre-population waste;
 *  (3) thread-cache size-class count — fewer classes push more requests
 *      to the bypass path.
 */

#include <iostream>

#include "alloc/pim_malloc.hh"
#include "core/pim_system.hh"
#include "sim/dpu.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/rng.hh"
#include "util/table.hh"
#include "workloads/microbench.hh"

using namespace pim;
using namespace pim::workloads;

namespace {

double
strawLatency(uint32_t buffer_bytes, telemetry::Registry *met)
{
    MicrobenchConfig cfg;
    cfg.allocator = core::AllocatorKind::StrawMan;
    cfg.tasklets = 16;
    cfg.allocsPerTasklet = 64;
    cfg.allocSize = 32;
    cfg.overrides.swBufferBytes = buffer_bytes;
    cfg.metrics = met;
    return runMicrobench(cfg).avgLatencyUs;
}

struct SpanResult
{
    double latencyUs;
    double fragmentation;
};

SpanResult
spanSweep(uint32_t span_bytes)
{
    core::PimSystem sys(core::singleDpuConfig());
    sim::Dpu &dpu = sys.dpu(0);
    alloc::PimMallocConfig cfg;
    cfg.spanBytes = span_bytes;
    // Keep class/span ratio within the bitmap: smallest class scales.
    cfg.sizeClasses.clear();
    for (uint32_t c = span_bytes / 256; c <= 2048; c *= 2)
        cfg.sizeClasses.push_back(c);
    cfg.numTasklets = 16;
    alloc::PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    dpu.run(16, [&](sim::Tasklet &t) {
        for (int i = 0; i < 128; ++i)
            a.malloc(t, 256);
    });
    return {dpu.config().cyclesToMicros(
                static_cast<uint64_t>(a.stats().latency.mean())),
            a.stats().peakFragmentation};
}

double
classCountLatency(size_t num_classes)
{
    core::PimSystem sys(core::singleDpuConfig());
    sim::Dpu &dpu = sys.dpu(0);
    alloc::PimMallocConfig cfg;
    cfg.sizeClasses.clear();
    // Classes shrink from 2 KB downward: fewer classes -> smaller max
    // cached size -> more bypasses for a mixed-size workload.
    uint32_t c = 2048;
    for (size_t i = 0; i < num_classes; ++i, c /= 2)
        cfg.sizeClasses.insert(cfg.sizeClasses.begin(), c);
    cfg.numTasklets = 16;
    alloc::PimMallocAllocator a(dpu, cfg);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    dpu.run(16, [&](sim::Tasklet &t) {
        util::Rng rng(t.id());
        for (int i = 0; i < 128; ++i)
            a.malloc(t, 16u << rng.uniformInt(8)); // 16 B .. 2 KB
    });
    return dpu.config().cyclesToMicros(
        static_cast<uint64_t>(a.stats().latency.mean()));
}

} // namespace

int
main(int argc, char **argv)
{
    // Only --metrics applies (ablations 2 and 3 drive bare DPUs, so
    // the registry covers the straw-man sweep's microbench runs).
    util::Cli cli(argc, argv, "metrics");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);
    trace::ObserverSet obs(/*trace=*/false, knobs.metrics);

    util::Table buf("Ablation 1: straw-man SW metadata buffer size "
                    "(16 tasklets, 32 B allocs)");
    buf.setHeader({"Buffer", "Avg latency (us)"});
    for (uint32_t bytes : {256u, 512u, 1024u, 2048u, 4096u, 8192u})
        buf.addRow({std::to_string(bytes) + " B",
                    util::Table::num(
                        strawLatency(bytes,
                                     obs.add("buffer "
                                             + std::to_string(bytes)
                                             + " B")
                                         .metrics),
                        1)});
    buf.print(std::cout);
    std::cout << "\n";

    util::Table span("Ablation 2: PIM-malloc span size (256 B allocs, "
                     "16 tasklets)");
    span.setHeader({"Span", "Avg latency (us)", "Peak A/U"});
    for (uint32_t bytes : {2048u, 4096u, 8192u, 16384u}) {
        const auto r = spanSweep(bytes);
        span.addRow({std::to_string(bytes) + " B",
                     util::Table::num(r.latencyUs, 2),
                     util::Table::num(r.fragmentation, 2)});
    }
    span.print(std::cout);
    std::cout << "\n";

    util::Table cls("Ablation 3: thread-cache size-class count "
                    "(mixed 16 B..2 KB workload)");
    cls.setHeader({"Classes", "Avg latency (us)"});
    for (size_t n : {2u, 4u, 6u, 8u})
        cls.addRow({util::Table::num(uint64_t{n}),
                    util::Table::num(classCountLatency(n), 2)});
    cls.print(std::cout);

    trace::emitReports(std::cout, obs, /*print_occupancy=*/false,
                       knobs.metrics, /*trace_path=*/"");
    return 0;
}

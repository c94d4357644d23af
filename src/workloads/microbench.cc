#include "workloads/microbench.hh"

#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "sim/dpu.hh"
#include "telemetry/registry.hh"
#include "util/logging.hh"

namespace pim::workloads {

MicrobenchResult
runMicrobench(const MicrobenchConfig &cfg)
{
    // One-DPU system driven through the unified command-queue runtime.
    core::PimSystem sys(core::singleDpuConfig(cfg.dpuCfg));
    core::CommandQueue queue(sys);
    sim::Dpu &dpu = sys.dpu(0);

    core::AllocatorOverrides ov = cfg.overrides;
    ov.numTasklets = cfg.tasklets;
    auto allocator = core::makeAllocator(dpu, cfg.allocator, ov);
    allocator->stats().traceEvents = cfg.traceEvents;

    // initAllocator() is a one-time, single-tasklet operation (Table II);
    // run it in its own launch so the measured phase starts initialized.
    queue.launch(sys.all(), 1,
                 [&](sim::Tasklet &t, unsigned) { allocator->init(t); });
    queue.sync();
    dpu.resetStats();
    allocator->stats().resetCounters();
    if (cfg.recorder != nullptr || cfg.metrics != nullptr) {
        // Trace/meter only the measured phase, starting at t = 0.
        queue.resetTimeline();
        if (cfg.recorder != nullptr)
            queue.attachRecorder(cfg.recorder);
        if (cfg.metrics != nullptr)
            queue.attachMetrics(cfg.metrics);
    }

    queue.launch(sys.all(), cfg.tasklets, [&](sim::Tasklet &t, unsigned) {
        std::vector<sim::MramAddr> live;
        live.reserve(cfg.freeEachAlloc ? 1 : cfg.allocsPerTasklet);
        for (unsigned i = 0; i < cfg.allocsPerTasklet; ++i) {
            const sim::MramAddr addr = allocator->malloc(t, cfg.allocSize);
            PIM_ASSERT(addr != sim::kNullAddr,
                       "microbenchmark exhausted the heap (size=",
                       cfg.allocSize, ", i=", i, ")");
            if (cfg.freeEachAlloc) {
                const bool ok = allocator->free(t, addr);
                PIM_ASSERT(ok, "microbenchmark double free");
            } else {
                live.push_back(addr);
            }
        }
    }, {.label = "alloc loop"});
    queue.sync();

    MicrobenchResult res;
    res.elapsedCycles = dpu.lastElapsedCycles();
    res.elapsedUs = dpu.config().cyclesToMicros(res.elapsedCycles);
    res.allocStats = allocator->stats();
    res.avgLatencyUs = dpu.config().cyclesToMicros(
        static_cast<uint64_t>(res.allocStats.latency.mean()));
    res.breakdown = dpu.lastBreakdown();
    res.traffic = dpu.traffic();
    res.cacheStats = dpu.buddyCache().stats();
    res.metadataBytes = allocator->metadataBytes();
    if (const sim::SimMutex *m = allocator->contentionMutex())
        res.mutexStats = m->statsSnapshot();
    if (cfg.metrics != nullptr) {
        telemetry::Registry &met = *cfg.metrics;
        met.counter("sim.cycles").add(res.elapsedCycles);
        met.counter("mutex.acquisitions")
            .add(res.mutexStats.acquisitions);
        met.counter("mutex.contended").add(res.mutexStats.contended);
        met.counter("mutex.parked").add(res.mutexStats.parked);
        met.counter("mutex.woken").add(res.mutexStats.woken);
        met.counter("mutex.elided_spin_events")
            .add(res.mutexStats.elidedSpinEvents);
    }
    return res;
}

} // namespace pim::workloads

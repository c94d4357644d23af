/**
 * @file
 * The standalone allocation microbenchmark of Section V: N tasklets
 * each issue a series of pimMalloc() (optionally followed by pimFree())
 * calls of a fixed size on one DPU, and the harness reports latency
 * statistics, cycle breakdowns, and metadata traffic. Drives Fig 7,
 * Fig 8, Fig 15, and Fig 16.
 */

#ifndef PIM_WORKLOADS_MICROBENCH_HH
#define PIM_WORKLOADS_MICROBENCH_HH

#include "alloc/alloc_stats.hh"
#include "core/allocator_factory.hh"
#include "sim/buddy_cache.hh"
#include "sim/config.hh"
#include "sim/mutex.hh"
#include "sim/types.hh"
#include "util/stats.hh"

namespace pim::trace {
class Recorder;
}

namespace pim::telemetry {
class Registry;
}

namespace pim::workloads {

/** Microbenchmark parameters. */
struct MicrobenchConfig
{
    /** Allocator design point under test. */
    core::AllocatorKind allocator = core::AllocatorKind::PimMallocSw;
    /** Concurrent tasklets issuing requests (paper: 1 or 16). */
    unsigned tasklets = 16;
    /** Requests per tasklet (paper: 128). */
    unsigned allocsPerTasklet = 128;
    /** Fixed request size in bytes. */
    uint32_t allocSize = 32;
    /**
     * Free each block immediately after allocating it ("consecutive
     * memory (de)allocation", Fig 7); false keeps blocks live (Fig 15).
     */
    bool freeEachAlloc = false;
    /** Record the per-event trace (Fig 8(a) series). */
    bool traceEvents = false;
    /** Overrides forwarded to the allocator factory. */
    core::AllocatorOverrides overrides{};
    /** DPU hardware configuration (buddy cache size sweeps). */
    sim::DpuConfig dpuCfg{};
    /** Span recorder fed by the measured launch (nullptr = off). */
    trace::Recorder *recorder = nullptr;
    /** Metrics registry (nullptr = off): queue counters/utilization of
     *  the measured launch plus "mutex.*" lock and "sim.*" engine
     *  counters harvested at the end of the run. */
    telemetry::Registry *metrics = nullptr;
};

/** Microbenchmark outcome. */
struct MicrobenchResult
{
    /** Mean pimMalloc() latency in microseconds. */
    double avgLatencyUs = 0.0;
    /** Makespan of the launch in cycles / microseconds. */
    uint64_t elapsedCycles = 0;
    double elapsedUs = 0.0;
    /** Full allocator statistics (service levels, latency percentiles,
     *  fragmentation, trace). */
    alloc::AllocStats allocStats;
    /** Launch-wide cycle breakdown. */
    sim::CycleBreakdown breakdown{};
    /** DMA traffic (metadata vs data). */
    sim::TrafficStats traffic{};
    /** Hardware buddy-cache statistics (HW/SW runs). */
    sim::BuddyCacheStats cacheStats{};
    /** MRAM metadata footprint of the allocator. */
    uint64_t metadataBytes = 0;
    /** Central-lock statistics (zeroed for lock-free design points). */
    sim::SimMutexStats mutexStats{};
};

/** Run the microbenchmark on one DPU. */
MicrobenchResult runMicrobench(const MicrobenchConfig &cfg);

} // namespace pim::workloads

#endif // PIM_WORKLOADS_MICROBENCH_HH

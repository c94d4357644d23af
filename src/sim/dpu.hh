/**
 * @file
 * One DRAM Processing Unit (DPU): the bank-level PIM core the paper
 * targets. Owns the backing storage for WRAM and MRAM, the hardware
 * buddy cache model, traffic statistics, and a simple WRAM budget
 * accountant used by the allocators to prove they fit in the scratchpad.
 *
 * DPUs never share state (each has its own address space), so multi-DPU
 * experiments simulate DPUs independently and reduce across them.
 */

#ifndef PIM_SIM_DPU_HH
#define PIM_SIM_DPU_HH

#include <cstdint>
#include <functional>

#include "sim/buddy_cache.hh"
#include "sim/config.hh"
#include "sim/memory.hh"
#include "sim/tasklet.hh"
#include "sim/types.hh"

namespace pim::trace {
class Recorder;
}

namespace pim::sim {

/** A single simulated DPU. */
class Dpu
{
  public:
    explicit Dpu(const DpuConfig &cfg = DpuConfig{});

    /** Immutable hardware parameters. */
    const DpuConfig &config() const { return cfg_; }

    /** Local DRAM bank. */
    FlatMemory &mram() { return mram_; }
    const FlatMemory &mram() const { return mram_; }

    /** Scratchpad. */
    FlatMemory &wram() { return wram_; }

    /** Hardware buddy cache (PIM-malloc-HW/SW only). */
    BuddyCache &buddyCache() { return buddyCache_; }

    /** Aggregate DMA traffic since the last resetStats(). */
    TrafficStats &traffic() { return traffic_; }
    const TrafficStats &traffic() const { return traffic_; }

    /**
     * Launch @p num_tasklets (at least one) tasklets all running
     * @p body and simulate to completion. Returns the makespan in
     * cycles. Tasklets with different programs branch on Tasklet::id().
     * Every tasklet calls @p body by reference, and the tasklets,
     * fibers and stacks come from the host thread's launch context
     * (scheduler.hh), so a steady-state launch allocates nothing. A
     * body may run another DPU; that nested launch takes its own
     * context.
     */
    uint64_t run(unsigned num_tasklets,
                 const std::function<void(Tasklet &)> &body);

    /** Makespan of the most recent run, in cycles. */
    uint64_t lastElapsedCycles() const { return lastElapsed_; }

    /** Simulation events (cycle charges) of the most recent run. */
    uint64_t lastSimEvents() const { return lastSimEvents_; }

    /** Makespan of the most recent run, in seconds. */
    double
    lastElapsedSeconds() const
    {
        return cfg_.cyclesToSeconds(lastElapsed_);
    }

    /**
     * Cycle breakdown of the most recent run aggregated over tasklets.
     * Tasklets that finish before the makespan contribute the difference
     * as Idle(Etc), so fractions reflect occupancy of the whole launch.
     */
    const CycleBreakdown &lastBreakdown() const { return lastBreakdown_; }

    /**
     * Reserve @p bytes of WRAM for a software structure (thread caches,
     * metadata buffers). Panics if the scratchpad budget is exceeded —
     * this is how the simulation enforces the paper's 64 KB constraint.
     * Returns the WRAM offset of the reservation.
     */
    uint32_t wramReserve(uint32_t bytes);

    /** WRAM bytes currently reserved. */
    uint32_t wramUsed() const { return wramUsed_; }

    /** Clear traffic counters and buddy-cache statistics. */
    void resetStats();

    /**
     * Per-tasklet tracing hook: while a recorder is attached, every
     * run() records one span per tasklet on the custom
     * lane "dpu<index>/t<k>", covering that tasklet's virtual clock.
     * Successive runs stack on this DPU's own local timeline (each run
     * starts where the previous makespan ended). The work happens once
     * per launch, after the event loop — the tasklet hot path is
     * untouched.
     */
    void
    attachTraceRecorder(trace::Recorder *rec, unsigned global_index = 0)
    {
        traceRec_ = rec;
        traceGlobal_ = global_index;
    }

    /**
     * Return this DPU's touched MRAM/WRAM pages to the OS (contents are
     * lost; statistics and the last run's results survive). The graph
     * update driver calls this after harvesting a shard's final round,
     * so peak memory tracks the in-flight workers, not the whole
     * system.
     */
    void reclaimMemory()
    {
        mram_.reset();
        wram_.reset();
    }

  private:
    DpuConfig cfg_;
    FlatMemory mram_;
    FlatMemory wram_;
    BuddyCache buddyCache_;
    TrafficStats traffic_;
    uint64_t lastElapsed_ = 0;
    uint64_t lastSimEvents_ = 0;
    CycleBreakdown lastBreakdown_{};
    uint32_t wramUsed_ = 0;
    trace::Recorder *traceRec_ = nullptr;
    unsigned traceGlobal_ = 0;
    double traceOrigin_ = 0.0;
};

} // namespace pim::sim

#endif // PIM_SIM_DPU_HH

/**
 * @file
 * The execution context handed to code running "on" a DPU hardware
 * thread. All simulated work flows through this interface: instruction
 * blocks (execute, or executeRepeated for a run of equal blocks), MRAM
 * DMA (dmaRead/dmaWrite and the typed helpers), and raw stalls. Each
 * charge advances the tasklet's virtual clock; the tasklet yields to
 * the scheduler only when the charge crosses the scheduler-assigned
 * horizon (the point where another tasklet would win the election), so
 * the common uncontended charge is a branch and two adds with no
 * function call — see scheduler.hh for why this is
 * semantics-preserving.
 */

#ifndef PIM_SIM_TASKLET_HH
#define PIM_SIM_TASKLET_HH

#include <cstdint>

#include "sim/types.hh"

namespace pim::sim {

class Dpu;
class TaskletScheduler;

/**
 * One DPU hardware thread. Instances are created, owned and re-armed for
 * each launch by the TaskletScheduler; workload code receives a
 * reference.
 */
class Tasklet
{
  public:
    /** Low bits of the election key reserved for the tasklet id. */
    static constexpr unsigned kIdBits = 5;

    Tasklet(const Tasklet &) = delete;
    Tasklet &operator=(const Tasklet &) = delete;

    /**
     * Execute a block of @p instrs instructions. The wall-clock cost is
     * instrs x max(pipelineIssueInterval, activeTasklets) cycles, which
     * models the UPMEM fine-grained multithreaded pipeline: one tasklet
     * alone is bounded by the issue interval, and a full pipeline shares
     * one issue slot per cycle among all active tasklets.
     *
     * @param kind  accounting category (Run for useful work, BusyWait
     *              for lock spinning).
     */
    void
    execute(uint64_t instrs, CycleKind kind = CycleKind::Run)
    {
        if (instrs == 0)
            return;
        charge(instrs * pipelineWidth(), kind);
    }

    /**
     * Make @p n back-to-back execute(@p instrs, @p kind) charges, with
     * the clock, simEvents(), breakdown and yield points of n separate
     * calls, in host work proportional to the horizon crossings rather
     * than to n. The charges that stay at or below the horizon are
     * applied in one step (one division); the crossing charge goes
     * through charge() and may yield, and the pipeline width is read
     * again after it, since tasklets may have finished meanwhile.
     */
    void
    executeRepeated(uint64_t instrs, uint64_t n,
                    CycleKind kind = CycleKind::Run)
    {
        if (instrs == 0)
            return;
        while (n > 0) {
            const uint64_t cycles = instrs * pipelineWidth();
            const uint64_t step = cycles << kIdBits;
            // A clock already past the horizon fits none: the next
            // charge yields, as execute() would.
            const uint64_t fit = horizonKey_ > clockKey_
                ? (horizonKey_ - clockKey_) / step
                : 0;
            const uint64_t inline_n = fit < n ? fit : n;
            clockKey_ += inline_n * step;
            simEvents_ += inline_n;
            breakdown_.add(kind, inline_n * cycles);
            n -= inline_n;
            if (n == 0)
                return;
            charge(cycles, kind); // crosses the horizon
            --n;
        }
    }

    /** Charge raw cycles without pipeline scaling (e.g. fixed latencies). */
    void
    stall(uint64_t cycles, CycleKind kind)
    {
        if (cycles == 0)
            return;
        charge(cycles, kind);
    }

    /**
     * Charge the cost of one MRAM->WRAM DMA transfer of @p bytes and
     * record the traffic. Time is accounted as Idle(Memory).
     */
    void dmaRead(MramAddr addr, uint32_t bytes,
                 TrafficClass tc = TrafficClass::Data);

    /** WRAM->MRAM counterpart of dmaRead(). */
    void dmaWrite(MramAddr addr, uint32_t bytes,
                  TrafficClass tc = TrafficClass::Data);

    /**
     * Read a value from MRAM, charging a DMA of max(8, sizeof(T)) bytes
     * (the UPMEM DMA engine moves at least 8 bytes).
     */
    template <typename T>
    T mramRead(MramAddr addr, TrafficClass tc = TrafficClass::Data);

    /** Typed MRAM write; see mramRead() for the cost model. */
    template <typename T>
    void mramWrite(MramAddr addr, const T &value,
                   TrafficClass tc = TrafficClass::Data);

    /** Virtual clock of this tasklet, in DPU cycles. */
    uint64_t clock() const { return clockKey_ >> kIdBits; }

    /** Number of simulation events (cycle charges) this tasklet issued. */
    uint64_t simEvents() const { return simEvents_; }

    /** Hardware thread id (0-based). */
    unsigned id() const { return id_; }

    /** The DPU this tasklet runs on. */
    Dpu &dpu() { return *dpu_; }

    /** The scheduler running this tasklet (park/wake, width replay). */
    TaskletScheduler &scheduler() { return *sched_; }

    /** True while descheduled via TaskletScheduler::parkCurrent(). */
    bool parked() const { return parked_; }

    /** Per-category cycle totals accumulated so far. */
    const CycleBreakdown &breakdown() const { return breakdown_; }

  private:
    friend class TaskletScheduler;

    Tasklet() = default;

    /**
     * Make this the fresh tasklet @p id of a launch of @p sched on
     * @p dpu: clock 0, no events, not parked, empty breakdown.
     */
    void rearm(Dpu &dpu, TaskletScheduler &sched, unsigned id);

    /** Cycles per instruction now: max(issue interval, unfinished). */
    uint64_t
    pipelineWidth() const
    {
        return *activeTasklets_ > issueInterval_ ? *activeTasklets_
                                                 : issueInterval_;
    }

    /**
     * The hot path of the whole simulator: account @p cycles and yield
     * only when the new clock crosses the scheduler-assigned horizon
     * (i.e. another tasklet would now win the election).
     */
    void
    charge(uint64_t cycles, CycleKind kind)
    {
        clockKey_ += cycles << kIdBits;
        ++simEvents_;
        breakdown_.add(kind, cycles);
        if (clockKey_ > horizonKey_) [[unlikely]]
            yieldNow();
    }

    /** Cold path: suspend back to the scheduler loop. */
    void yieldNow();

    Dpu *dpu_ = nullptr;
    TaskletScheduler *sched_ = nullptr;
    /** Points at the scheduler's live unfinished-tasklet count. */
    const unsigned *activeTasklets_ = nullptr;
    /** Cached DpuConfig::pipelineIssueInterval. */
    uint64_t issueInterval_ = 0;
    unsigned id_ = 0;
    /**
     * The tasklet's election key: virtual clock in the upper 59 bits,
     * id in the low kIdBits. "(smallest clock, lowest id) wins" is then
     * plain integer order, so the scheduler's heap holds bare uint64
     * keys and the horizon check below is a single compare. Charging
     * cycles adds cycles << kIdBits, leaving the id bits untouched.
     */
    uint64_t clockKey_ = 0;
    /**
     * Run-ahead bound, maintained by the scheduler: the election key of
     * the best waiting tasklet. This tasklet keeps running (no context
     * switch) until a charge pushes clockKey_ past it. UINT64_MAX
     * outside the run loop (or for the last unfinished tasklet), so
     * charges never yield there.
     */
    uint64_t horizonKey_ = UINT64_MAX;
    uint64_t simEvents_ = 0;
    /** Set while descheduled (parked mutex waiter); the scheduler
     *  never elects a parked tasklet. */
    bool parked_ = false;
    CycleBreakdown breakdown_{};
};

} // namespace pim::sim

#endif // PIM_SIM_TASKLET_HH

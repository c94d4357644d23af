/**
 * @file
 * LLM serving engine on the command-queue runtime. One engine, two
 * execution modes:
 *
 *   Lockstep      — the analytic Fig 18 reproduction: every decode step
 *                   is one composed host-clock charge (FC + attention +
 *                   allocation), requests march in lockstep. Numerically
 *                   identical to the historical runServing() loop.
 *
 *   Disaggregated — prefill/decode disaggregation as a real pipeline on
 *                   core::CommandQueue (the DistServe/LLMServingSim-style
 *                   setup): prefill runs as launchProgram on a leading
 *                   rank partition (the real KV allocator + prompt KV
 *                   fill on the simulated DPUs), decode attention runs
 *                   as bandwidth-costed launchTimed commands on the
 *                   complementary ranks, prompt KV migrates prefill →
 *                   decode over the bus, and each step's KV-block append
 *                   ships via double-buffered memcpyScatterBufferedAsync
 *                   chained with Events so the transfer overlaps the
 *                   next step's attention. Admission and TPOT accounting
 *                   are driven off Event completion timestamps
 *                   (CommandQueue::eventSeconds), not a lumped clock.
 *
 * Attach a trace::Recorder (ServingConfig::recorder) to see the
 * pipeline: prefill-rank lanes, decode-rank lanes, and the KV bus lane
 * genuinely overlap, and `--occupancy` quantifies the hidden work.
 */

#ifndef PIM_WORKLOADS_LLM_SERVING_ENGINE_HH
#define PIM_WORKLOADS_LLM_SERVING_ENGINE_HH

#include <memory>

#include "core/command_queue.hh"
#include "core/session.hh"
#include "fault/fault_plan.hh"
#include "workloads/llm/serving_sim.hh"

namespace pim::workloads::llm {

/** How the engine schedules the serving trace. */
enum class ServingMode {
    Lockstep,      ///< analytic host-clock loop (Fig 18 reproduction)
    Disaggregated, ///< rank-partitioned prefill/decode pipeline
};

/** Engine parameters on top of the shared serving trace config. */
struct ServingEngineConfig
{
    /** Trace, model, and system parameters (shared with runServing). */
    ServingConfig base{};

    ServingMode mode = ServingMode::Lockstep;

    /**
     * Disaggregated mode: fraction of the system's ranks dedicated to
     * prefill; the complement decodes. Rounded to whole ranks and
     * clamped so both partitions are non-empty.
     */
    double prefillRankFraction = 0.25;

    /**
     * Worker threads simulating prefill DPUs (0 = PIM_SIM_THREADS env,
     * else hardware concurrency). Results are thread-count invariant.
     */
    unsigned simThreads = 0;

    /**
     * Fault injection for the standalone Disaggregated run: when
     * faultSpec.enabled(), runDisaggregated() runs its task in a
     * core::Session built from (faultSpec, faultSeed), which holds
     * spareRanks back from the task's grant when rank failures are in
     * play so replacements exist. Disabled by default; the fault-free
     * path is byte-identical to the pre-fault engine. (Co-tenant
     * DisaggServingTask callers hand the fault knobs to their own
     * Session and only set faultPolicy.)
     */
    fault::FaultSpec faultSpec{};
    uint64_t faultSeed = 23;
    fault::FaultPolicy faultPolicy = fault::FaultPolicy::Recover;
    unsigned spareRanks = 1;
};

/**
 * Mean per-block KV allocation latency of @p kind under the serving
 * access pattern (@p tasklets concurrent tasklets, @p block_bytes
 * requests, no frees), calibrated by running the real allocator
 * microbenchmark on the DPU simulator. Memoized on
 * (kind, tasklets, block_bytes): sweeps re-running the serving engine
 * pay the microbenchmark once per distinct key, not once per run.
 * Thread-safe.
 */
double calibratedAllocLatency(core::AllocatorKind kind, unsigned tasklets,
                              uint32_t block_bytes);

/** The serving pipeline of one scheme/config (single-shot: run() once). */
class ServingEngine
{
  public:
    ServingEngine(const ServingScheme &scheme,
                  const ServingEngineConfig &cfg);

    /** Execute the serving trace to completion. */
    ServingResult run();

  private:
    ServingResult runLockstep();
    ServingResult runDisaggregated();

    ServingScheme scheme_;
    ServingEngineConfig cfg_;
};

/**
 * The disaggregated serving pipeline as a core::Stepper on an
 * externally owned CommandQueue and rank partition. A standalone run
 * (ServingEngine::runDisaggregated) is this task over all ranks of a
 * fresh system; a co-tenant run constructs it on a shared queue with
 * the ranks a core::RankScheduler granted (split internally into
 * prefill/decode partitions) and a registered TenantId, and hands it to
 * the same core::Session as the other tenants' steppers.
 *
 * The task never joins the queue's timelines (no sync()), so
 * co-resident tenants keep issuing while it runs; all admission/TPOT
 * accounting is event-timestamp driven.
 */
class DisaggServingTask : public core::Stepper
{
  public:
    /**
     * @param partition rank-granular DpuSet (>= 2 ranks) this tenant
     *        owns; prefillRankFraction of it prefills, the rest
     *        decodes.
     * @param tenant the queue tenant commands are issued as (register
     *        with CommandQueue::addTenant; 0 = the default host).
     */
    DisaggServingTask(const ServingScheme &scheme,
                      const ServingEngineConfig &cfg,
                      core::CommandQueue &queue,
                      const core::DpuSet &partition,
                      core::TenantId tenant = core::kDefaultTenant);
    ~DisaggServingTask() override;

    /** True once every request of the trace has fully decoded. */
    bool done() const override;

    /** Completion time of the task's latest decode step. */
    double clockSeconds() const override;

    /** One scheduler iteration: admit arrivals, launch/activate
     *  prefill waves, run one decode step (or idle to the next
     *  arrival). */
    void step() override;

    /** Drop sheds the affected requests and shrinks; Recover pauses
     *  until a replacement is granted. */
    bool onRankFailed(unsigned rank, double failSec) override;

    /** The replacement re-joins the side that lost a rank, prefill
     *  state is re-initialized and the affected KV re-shipped via the
     *  double-buffered path. */
    void onReplacementGranted(const core::DpuSet &replacement) override;

    /**
     * Metrics of the completed trace (valid once done()). makespanSec
     * is the task's own clock — the tenant's completion time on the
     * shared timeline — and kvShippedBytes counts only this task's
     * transfers, so co-tenants don't pollute each other's results.
     * overlapSeconds stays 0 (queue-wide work counters are
     * cross-tenant; use trace::analyzeOccupancy on a co-tenant trace).
     */
    ServingResult result() const;

  private:
    friend class ServingEngine;
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace pim::workloads::llm

#endif // PIM_WORKLOADS_LLM_SERVING_ENGINE_HH

/**
 * @file
 * FaultInjector: consumption state over a FaultPlan.
 *
 * The plan is the immutable schedule; the injector is the mutable
 * cursor the runtime queries while it resolves commands. All queries
 * happen in core::CommandQueue's *sequential* resolve fold (and in
 * core::Session's control-plane loop), so consumption order
 * — and therefore every injected outcome — is independent of the sim
 * thread count.
 *
 * Layering: fault/ sits below core/ (it depends only on util/), so the
 * CommandQueue can hold a FaultInjector* while benches and workloads
 * build plans from CLI knobs.
 */

#ifndef PIM_FAULT_INJECTOR_HH
#define PIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "fault/fault_plan.hh"

namespace pim::telemetry {
class Registry;
}

namespace pim::fault {

/** Outcome of routing one bus transfer through the injector. */
struct TransferOutcome
{
    /** Attempts charged to the bus (1 = clean first try). */
    unsigned attempts = 1;
    /** Total bus seconds: attempts * copySeconds + backoff between
     *  retries (exponential, capped). */
    double busSeconds = 0.0;
    /** Retry budget exhausted: the transfer failed permanently. */
    bool failed = false;
};

/** Running totals of what the injector actually inflicted. */
struct InjectorStats
{
    unsigned rankFailures = 0;
    unsigned transientTransferFaults = 0;
    unsigned transferRetries = 0;
    unsigned transferPermanentFailures = 0;
    unsigned launchHangs = 0;
    unsigned launchTimeouts = 0;
    unsigned degradedLaunches = 0;
    unsigned poisonedCommands = 0;
};

class FaultInjector
{
  public:
    explicit FaultInjector(FaultPlan plan);

    const FaultPlan &plan() const { return plan_; }
    const FaultSpec &spec() const { return plan_.spec(); }

    // ------------------------------------------------------------------
    // Data plane: queried by the CommandQueue resolve fold.
    // ------------------------------------------------------------------

    /** Simulated time rank @p r dies (+inf if it never does). */
    double rankFailSeconds(unsigned r) const;

    /** True if rank @p r is dead at time @p t. */
    bool rankFailedBy(unsigned r, double t) const;

    /** Launch-duration multiplier for rank @p r at @p startSec (>= 1;
     *  the max over active degradation episodes). */
    double launchMultiplier(unsigned r, double startSec) const;

    /** Launch timeout in seconds (0 = launches never time out). */
    double launchTimeoutSec() const { return plan_.spec().launchTimeoutSec; }

    /**
     * Consume the oldest un-consumed hang event armed at or before
     * @p startSec whose victim is in @p ranks. Returns the hanging
     * rank, or -1 if the launch proceeds. A hang is only recoverable
     * via the launch timeout (spec parsing enforces that; the queue is
     * fatal if a programmatic plan hangs with no timeout).
     */
    int consumeHang(const std::vector<unsigned> &ranks, double startSec);

    /**
     * Route one bus transfer of duration @p copySeconds starting at
     * @p startSec: consumes every transient event armed before the
     * first attempt would complete (a glitch latches onto the next
     * transfer in flight), charges retries with capped exponential
     * backoff, and reports permanent failure once the attempt budget
     * (spec().maxTransferAttempts) is exhausted.
     */
    TransferOutcome transfer(double startSec, double copySeconds);

    /** Bookkeeping hooks for outcomes only the queue can see. */
    void noteTimeout() { ++stats_.launchTimeouts; }
    void noteDegraded() { ++stats_.degradedLaunches; }
    void notePoisoned() { ++stats_.poisonedCommands; }

    // ------------------------------------------------------------------
    // Control plane: drives RankScheduler quarantine + recovery.
    // ------------------------------------------------------------------

    /**
     * Rank-failure events due at or before @p nowSec and not yet
     * reported (first failure per rank only), in schedule order. The
     * caller quarantines each rank and triggers tenant recovery.
     */
    std::vector<FaultEvent> drainFailedRanks(double nowSec);

    const InjectorStats &stats() const { return stats_; }

    /**
     * Re-export the injection statistics as "fault.*" counters in
     * @p met, so fault activity rides in the same metrics snapshot as
     * the queue/scheduler signals it explains. Call once, after the
     * run (counters are monotonic; re-exporting would double-count).
     */
    void exportMetrics(telemetry::Registry &met) const;

  private:
    FaultPlan plan_;
    /** Per-rank first-death time (+inf if never). */
    std::vector<double> rankFailAt_;
    /** RankFail events deduped to the first per rank, time order. */
    std::vector<FaultEvent> rankFails_;
    size_t rankFailCursor_ = 0;
    std::vector<FaultEvent> degrades_;
    std::vector<FaultEvent> hangs_;
    std::vector<bool> hangConsumed_;
    std::vector<FaultEvent> transients_;
    size_t transientCursor_ = 0;
    InjectorStats stats_;
};

} // namespace pim::fault

#endif // PIM_FAULT_INJECTOR_HH

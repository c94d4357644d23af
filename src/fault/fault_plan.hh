/**
 * @file
 * Deterministic fault schedules for the command-queue runtime.
 *
 * A FaultPlan is a pre-generated, sorted list of fault events on the
 * *simulated* timeline, built from a seed and a rate spec before any
 * command runs. Because the schedule exists up front and every
 * consumption decision is made in the queue's sequential resolve fold,
 * an injected-fault run is bit-identical for any PIM_SIM_THREADS
 * value — the same property the fault-free simulator already has.
 *
 * Each fault class draws from its own named Rng sub-stream
 * (util::Rng::stream), so changing one rate knob never shifts the
 * schedule of another class, and none of them alias workload
 * randomness (arrival processes, graph shapes).
 */

#ifndef PIM_FAULT_FAULT_PLAN_HH
#define PIM_FAULT_FAULT_PLAN_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pim::fault {

/** One class of injected fault. */
enum class FaultKind {
    /** Permanent rank death: the rank stops executing at atSec. */
    RankFail,
    /** Transient bus-transfer corruption: the victim transfer is
     *  retried with capped exponential backoff. */
    TransientTransfer,
    /** The rank runs slow (launch durations scaled by multiplier) for
     *  durationSec starting at atSec — a thermal/refresh straggler. */
    RankDegrade,
    /** The next launch touching the rank never completes; only
     *  recoverable via the launch timeout knob. */
    LaunchHang,
};

/** Printable name of a fault kind ("rank-fail", ...). */
const char *faultKindName(FaultKind kind);

/** What the serving pipeline (llm::DisaggServingTask) does when its
 *  commands fail (irrelevant without an attached FaultInjector on the
 *  queue). The graph update has no policy: it always recovers. */
enum class FaultPolicy {
    /** No-recovery baseline (bench_fault_tolerance's reference):
     *  affected work is dropped, dead ranks shrink the partition, the
     *  run keeps going. */
    Drop,
    /** Full recovery: replacement ranks re-join the partition, lost
     *  state is restored over the bus, and the affected work re-runs
     *  (counted against the SLO), never dropped. */
    Recover,
};

/** One scheduled fault on the simulated timeline. */
struct FaultEvent
{
    FaultKind kind = FaultKind::RankFail;
    /** Simulated time the fault arms. */
    double atSec = 0.0;
    /** Victim rank (RankFail / RankDegrade / LaunchHang). */
    unsigned rank = 0;
    /** RankDegrade: launch-duration multiplier (> 1). */
    double multiplier = 1.0;
    /** RankDegrade: how long the degradation lasts. */
    double durationSec = 0.0;
    /** TransientTransfer: consecutive corrupted attempts injected. */
    unsigned attempts = 1;
};

/**
 * Fault rates and recovery knobs, parseable from a `--fault-spec`
 * string of comma-separated key=value pairs, e.g.
 *
 *   "mtbf=5,xfer-mtbf=0.5,degrade-mtbf=10,timeout=0.2"
 *
 * Keys (all rates are mean-time-between-failures in simulated
 * seconds; a rate of 0 disables that class):
 *
 *   mtbf          rank failures               (rankMtbfSec)
 *   xfer-mtbf     transient transfer faults   (transferMtbfSec)
 *   degrade-mtbf  rank degradation episodes   (degradeMtbfSec)
 *   degrade-mult  degradation multiplier      (degradeMultiplier)
 *   degrade-dur   degradation duration (s)    (degradeDurationSec)
 *   hang-mtbf     launch hangs                (hangMtbfSec)
 *   timeout       launch timeout (s, 0 = off) (launchTimeoutSec)
 *   horizon       schedule horizon (s)        (horizonSec)
 *   backoff       first retry backoff (s)     (retryBackoffSec)
 *   backoff-cap   max per-retry backoff (s)   (retryBackoffCapSec)
 *   max-attempts  transfer attempts before a
 *                 permanent failure           (maxTransferAttempts)
 *
 * Unknown keys or unparseable values are a fatal CLI error.
 */
struct FaultSpec
{
    double rankMtbfSec = 0.0;
    double transferMtbfSec = 0.0;
    double degradeMtbfSec = 0.0;
    double degradeMultiplier = 4.0;
    double degradeDurationSec = 1.0;
    double hangMtbfSec = 0.0;
    double launchTimeoutSec = 0.0;
    double horizonSec = 120.0;
    double retryBackoffSec = 100e-6;
    double retryBackoffCapSec = 10e-3;
    unsigned maxTransferAttempts = 8;

    /** True if any fault class has a nonzero rate. */
    bool enabled() const;

    /**
     * Parse a `--fault-spec` string (see above). Fatal with a clear
     * message on unknown keys, bad numbers, or invalid combinations.
     * An empty string parses to the all-disabled default spec.
     */
    static FaultSpec parse(const std::string &spec);

    /**
     * Spec from the shared bench knobs: parse @p spec, then let a
     * nonzero @p mtbfOverride (the `--mtbf` convenience flag) replace
     * the rank-failure MTBF.
     */
    static FaultSpec fromKnobs(const std::string &spec,
                               double mtbfOverride);
};

/**
 * The deterministic fault schedule: every fault event the run will
 * ever see, sorted by time, a pure function of (spec, seed, numRanks).
 */
class FaultPlan
{
  public:
    /** Empty plan (no faults). */
    FaultPlan() = default;

    /** Generate the schedule over [0, spec.horizonSec). */
    FaultPlan(const FaultSpec &spec, uint64_t seed, unsigned numRanks);

    /** Programmatic plan from explicit @p events (tests, trace
     *  replay), sorted into schedule order. */
    FaultPlan(const FaultSpec &spec, std::vector<FaultEvent> events,
              unsigned numRanks);

    const FaultSpec &spec() const { return spec_; }
    unsigned numRanks() const { return numRanks_; }

    /** All scheduled events, sorted by (atSec, kind, rank). */
    const std::vector<FaultEvent> &events() const { return events_; }

    /** Events of one kind, in time order. */
    std::vector<FaultEvent> eventsOfKind(FaultKind kind) const;

  private:
    FaultSpec spec_{};
    unsigned numRanks_ = 0;
    std::vector<FaultEvent> events_;
};

} // namespace pim::fault

#endif // PIM_FAULT_FAULT_PLAN_HH

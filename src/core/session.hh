/**
 * @file
 * One driver loop for every resumable workload on a CommandQueue.
 *
 * A Stepper is a workload that advances one step at a time on a shared
 * queue and reacts to rank loss (the disaggregated serving pipeline, the
 * streaming graph update). A Session co-schedules any number of them on
 * one queue: it always steps the unfinished stepper whose clock is
 * behind (ties go to the one added first), so the command interleaving
 * on the shared bus is a pure function of the configs. A standalone run
 * is a session with one stepper.
 *
 * The session also owns the fault wiring: with a FaultSpec enabled it
 * builds the FaultInjector and attaches it to the queue. With rank
 * deaths in play, after every step it quarantines the ranks whose
 * scheduled death the stepped clock has reached and tells each owner.
 * An owner that waits for a replacement joins one first-in first-out
 * list, whose head is granted one free rank whenever one exists: right
 * after a failure, and after a finished tenant returns its grant to the
 * free pool. The RankScheduler only records who owns which rank.
 */

#ifndef PIM_CORE_SESSION_HH
#define PIM_CORE_SESSION_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "core/command_queue.hh"
#include "core/rank_scheduler.hh"
#include "fault/fault_plan.hh"

namespace pim::fault {
class FaultInjector;
}

namespace pim::telemetry {
class Registry;
}

namespace pim::core {

/** A workload a Session drives step by step on a shared queue. */
class Stepper
{
  public:
    Stepper() = default;
    virtual ~Stepper() = default;
    Stepper(const Stepper &) = delete;
    Stepper &operator=(const Stepper &) = delete;

    /** True once the workload has completed. */
    virtual bool done() const = 0;

    /** Queue-timeline completion time of the latest step (the
     *  co-scheduler's ordering key). */
    virtual double clockSeconds() const = 0;

    /** Enqueue the next step and wait for it (event-driven). Never
     *  called after done(), nor while a replacement is outstanding. */
    virtual void step() = 0;

    /**
     * @p rank, part of this stepper's partition, died at simulated time
     * @p failSec. A recovering stepper (the graph update always, the
     * serving pipeline under fault::FaultPolicy::Recover) pauses until
     * onReplacementGranted(); the serving pipeline under Drop sheds the
     * affected work and shrinks onto its surviving ranks.
     * @return true if the stepper now waits for a replacement rank.
     */
    virtual bool onRankFailed(unsigned rank, double failSec) = 0;

    /** A single-rank replacement for the oldest outstanding failure. */
    virtual void onReplacementGranted(const DpuSet &replacement) = 0;
};

/** Co-scheduling driver of Steppers on one CommandQueue. */
class Session
{
  public:
    /**
     * Observers attach to @p queue before the session is built: the
     * session counts its rank scheduler's decisions, and the
     * replacement requests that wait ("ranks.waits"), into the queue's
     * registry and, once run() has joined the queue, exports the fault
     * statistics there too. run() is fatal if the queue's registry
     * changed in between.
     *
     * @param faults opt-in fault injection: when enabled(), the session
     *        attaches a FaultInjector over FaultPlan(faults, faultSeed,
     *        ranks) to @p queue for its lifetime.
     */
    explicit Session(CommandQueue &queue, const fault::FaultSpec &faults = {},
                     uint64_t faultSeed = 0);
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** True when scheduled rank deaths are in play. */
    bool rankFaults() const;

    /** The rank arbiter tenants take their partitions from. */
    RankScheduler &scheduler() { return sched_; }

    /**
     * Grant @p tenant every free rank but the replacements held back
     * when rankFaults(): up to @p spares of them, never leaving the
     * tenant fewer than @p minRanks.
     */
    DpuSet acquireRest(const std::string &tenant, unsigned spares,
                       unsigned minRanks);

    /** Drive @p task as scheduler tenant @p tenant (its grant's owner
     *  name, unique in the session). The task must outlive the
     *  session. */
    void add(const std::string &tenant, Stepper &task);

    /**
     * Step every added stepper until all are done, then join the queue
     * and export the fault statistics. Fatal if a rank dies while no
     * replacement is free. @return the joined makespan (sync()).
     */
    double run();

  private:
    struct Tenant
    {
        std::string name;
        Stepper *task;
    };

    /** Grant the waiting tenants one free rank each, oldest failure
     *  first, until the free pool runs dry. */
    void grantWaiting();

    CommandQueue &queue_;
    RankScheduler sched_;
    std::unique_ptr<fault::FaultInjector> inj_;
    /** The queue's registry when the session was built. */
    telemetry::Registry *met_;
    std::vector<Tenant> tenants_;
    /** One entry per failure still waiting for its replacement, in
     *  failure order. */
    std::deque<Tenant> waiting_;
};

} // namespace pim::core

#endif // PIM_CORE_SESSION_HH

/**
 * @file
 * Simulated intra-DPU mutex. UPMEM tasklets synchronize through WRAM
 * atomics; a blocked tasklet spins (there is no sleeping), which is
 * exactly the busy-waiting behaviour the paper's Fig 8 measures. Each
 * spin iteration charges BusyWait cycles, so contention shows up in the
 * latency breakdown automatically.
 *
 * Two execution modes produce bit-identical simulations:
 *
 *  - Spin (the test oracle): blocked tasklets literally re-check the
 *    lock with bounded exponential backoff; every re-check is one
 *    simulation event (cycle charge), and under heavy contention those
 *    events — and their context switches — dominate host wall time.
 *    Tests select it explicitly or through setDefaultMode().
 *
 *  - Queue (default): blocked tasklets park on a per-mutex
 *    FIFO wait list and deschedule entirely (they hold no election key
 *    in the scheduler heap). The spin model's re-check times are a
 *    pure function of the arrival clock, the deterministic backoff
 *    sequence (kAttemptInstrs doubling to kMaxSpinInstrs), and the
 *    pipeline width at each re-check (replayed from the scheduler's
 *    finish history), so unlock() advances every parked waiter's
 *    *virtual* spin schedule analytically and wakes exactly the waiter
 *    whose next re-check is the first one after the release — the same
 *    waiter, at the same clock, with the same accumulated BusyWait
 *    cycles the spin model would produce. Once a waiter's backoff is
 *    capped, its re-checks before the release and before the next
 *    finish (the only place the width can change) are all the same
 *    batch, so unlock() counts them with one division instead of one
 *    step each. A woken waiter re-validates
 *    on resume: if a running tasklet grabbed the lock in between
 *    (which the spin model also allows — its re-check would have come
 *    first in (clock, id) election order), it re-parks and its virtual
 *    schedule continues. Allocation outcomes, per-tasklet clocks, and
 *    cycle breakdowns are therefore *exactly* equal across modes; only
 *    the number of real simulation events differs (the elided
 *    re-checks are counted in elidedSpinEvents(), and
 *    chargedEvents + elidedSpinEvents == spin-mode chargedEvents).
 */

#ifndef PIM_SIM_MUTEX_HH
#define PIM_SIM_MUTEX_HH

#include <cstdint>
#include <vector>

#include "sim/tasklet.hh"

namespace pim::sim {

/** Snapshot of a SimMutex's contention counters. */
struct SimMutexStats
{
    uint64_t acquisitions = 0;
    uint64_t contended = 0;
    uint64_t parked = 0;
    uint64_t woken = 0;
    uint64_t elidedSpinEvents = 0;

    void
    merge(const SimMutexStats &o)
    {
        acquisitions += o.acquisitions;
        contended += o.contended;
        parked += o.parked;
        woken += o.woken;
        elidedSpinEvents += o.elidedSpinEvents;
    }
};

/** Test-and-set lock with spin and parked-waiter execution modes. */
class SimMutex
{
  public:
    /** How blocked tasklets wait; see the file header. */
    enum class Mode : uint8_t {
        Spin,  ///< simulate every backoff re-check (the test oracle)
        Queue, ///< park waiters, replay the spin schedule analytically
    };

    /** Instruction cost of one lock attempt (test-and-set + branch). */
    static constexpr uint64_t kAttemptInstrs = 4;
    /** Instruction cost of releasing the lock. */
    static constexpr uint64_t kReleaseInstrs = 2;
    /** Backoff cap: largest instruction batch between re-checks. */
    static constexpr uint64_t kMaxSpinInstrs = 256;

    /** @param mode waiting strategy; defaults to defaultMode(). */
    explicit SimMutex(Mode mode = defaultMode()) : mode_(mode) {}

    /** Process-wide default mode: Queue unless setDefaultMode() says
     *  otherwise. */
    static Mode defaultMode();

    /**
     * Override the process-wide default. Differential tests use this to
     * build allocators, whose mutexes they cannot reach, on the Spin
     * oracle.
     */
    static void setDefaultMode(Mode mode);

    /**
     * Acquire the lock. In Spin mode a blocked tasklet busy-waits
     * (BusyWait charges); in Queue mode it parks and is woken with an
     * equivalent lump BusyWait charge. The successful final attempt is
     * always charged as Run.
     */
    void lock(Tasklet &t);

    /**
     * Release the lock. @pre held. In Queue mode this advances every
     * parked waiter's virtual spin schedule past the release point and
     * wakes the waiter whose re-check comes first. A waiter's capped
     * batches (kMaxSpinInstrs each) between two width changes advance
     * in closed form; the uncapped ones step one by one.
     */
    void unlock(Tasklet &t);

    /** True while some tasklet holds the lock. */
    bool held() const { return locked_; }

    /** The waiting strategy of this mutex instance. */
    Mode mode() const { return mode_; }

    /** Total successful acquisitions. */
    uint64_t acquisitions() const { return acquisitions_; }

    /** Acquisitions that had to wait at least once. */
    uint64_t contendedAcquisitions() const { return contended_; }

    /** Park episodes (Queue mode; a stolen wake re-parks and counts). */
    uint64_t parkedCount() const { return parked_; }

    /** Wake-ups issued by unlock() (Queue mode). */
    uint64_t wokenCount() const { return woken_; }

    /**
     * Spin re-checks that Queue mode accounted analytically instead of
     * simulating (0 in Spin mode). Adding this to the real charged
     * event count reproduces the spin model's event count exactly.
     */
    uint64_t elidedSpinEvents() const { return elided_; }

    /** All counters as one value (bench tables / JSON). */
    SimMutexStats
    statsSnapshot() const
    {
        return {acquisitions_, contended_, parked_, woken_, elided_};
    }

  private:
    /** One parked tasklet's virtual spin-schedule state. */
    struct Waiter
    {
        Tasklet *t;
        /** Election key of the next virtual lock re-check. */
        uint64_t nextCheckKey;
        /** Index into the backoff sequence for the batch *after* that. */
        uint32_t batchIdx;
    };

    /** First backoff batch index that is capped at kMaxSpinInstrs. */
    static constexpr uint32_t kCappedBatchIdx = 6;

    /** Backoff batch @p idx in instructions: 4, 8, ..., capped at 256. */
    static uint64_t
    batchInstrs(uint32_t idx)
    {
        return idx >= kCappedBatchIdx ? kMaxSpinInstrs
                                      : (kAttemptInstrs << idx);
    }

    void lockSpin(Tasklet &t);
    void lockQueue(Tasklet &t);

    /** Append @p t to the wait list, virtually charging one batch. */
    void parkWaiter(Tasklet &t, uint32_t batch_idx);

    Mode mode_;
    bool locked_ = false;
    uint64_t acquisitions_ = 0;
    uint64_t contended_ = 0;
    uint64_t parked_ = 0;
    uint64_t woken_ = 0;
    uint64_t elided_ = 0;
    /** Parked tasklets in arrival order (Queue mode only). */
    std::vector<Waiter> waiters_;
    /**
     * Backoff handoff from unlock() to the woken tasklet's lock()
     * frame, indexed by tasklet id (wakes are one-at-a-time per mutex,
     * and a woken tasklet consumes its slot before the next wake of
     * the same tasklet can happen).
     */
    std::vector<uint32_t> resumeBatchIdx_;
};

} // namespace pim::sim

#endif // PIM_SIM_MUTEX_HH

/**
 * @file
 * Deterministic cooperative scheduler for the tasklets of one DPU.
 *
 * Tasklets run on fibers (a lone tasklet runs off-fiber, see below);
 * control returns here whenever the running tasklet can no longer be
 * the next one to run. The scheduler always runs the unfinished
 * tasklet with the smallest virtual clock (ties broken by id), which
 * makes the interleaving — and therefore every experiment — fully
 * deterministic while still exhibiting realistic contention dynamics.
 *
 * Two scheduling policies produce bit-identical simulations:
 *
 *  - Horizon (default): when a tasklet is resumed the scheduler also
 *    hands it a *horizon* — the largest virtual clock at which it still
 *    wins the "(smallest clock, lowest id)" election against the best
 *    waiting tasklet. Cycle charges below the horizon just advance the
 *    tasklet's clock inline (a branch and two adds); only a charge that
 *    crosses the horizon context-switches. This is semantics-preserving
 *    because a yield that would immediately resume the same tasklet is
 *    a no-op in a cooperative model: nothing else runs in between, so
 *    no observable state can change. The waiting set is a small binary
 *    min-heap keyed by (clock, id); only the resumed tasklet's key ever
 *    changes (monotonically forward), so plain push/pop suffices.
 *
 *  - NaiveReference: the original event loop — yield back to the
 *    scheduler after *every* cycle charge and rescan all tasklets with
 *    an O(T) loop. Kept only as the test oracle: Dpu launches always
 *    use Horizon, and the determinism and scheduler suites construct
 *    NaiveReference directly and assert Horizon matches it exactly.
 *
 * Parked tasklets: SimMutex's queue mode deschedules blocked tasklets
 * through parkCurrent()/wake(). A parked tasklet holds no election key
 * (it is out of the Horizon heap and skipped by the NaiveReference
 * scan), so the remaining runnable tasklets elect — and run ahead —
 * against each other only. wake() re-inserts the tasklet at a future
 * clock chosen by the waker, charging the wait as one lump. The
 * scheduler also keeps the election keys at which tasklets finished
 * (finish history), so wakers can reconstruct the pipeline width that
 * was in effect at any past virtual instant (pipelineWidthAt()).
 *
 * Lone tasklets: under Horizon a launch of one tasklet can never lose
 * an election (there is nobody to lose to), so runToCompletion() calls
 * its body directly on the caller's stack, with no fiber re-arm, resume
 * or trampoline. Parking it is fatal exactly as on a fiber. The
 * NaiveReference oracle still runs a lone tasklet on a fiber, which is
 * what the off-fiber path is tested against.
 *
 * Launch contexts: a launch needs tasklets, fibers with their stacks,
 * and the heap and finish-history vectors. Each host thread keeps these
 * in a launch context that outlives the scheduler: the constructor
 * checks the thread's idle context out, spawn() re-arms its pooled
 * tasklets in place, runToCompletion() re-arms pooled fibers for
 * launches of two or more tasklets (each pool grows only past its
 * largest launch so far), and the destructor returns the context. A
 * steady-state launch therefore makes no heap allocation and maps no
 * stack. A scheduler
 * built while the thread's context is checked out — a Dpu::run issued
 * from inside a tasklet body, or a caller holding two schedulers —
 * takes a second context, so nested launches never share tasklets or
 * stacks; the thread keeps every context it has made for later
 * launches. Contexts are per host thread, not per DPU, so the stacks
 * mapped scale with the worker count, not with the DPUs simulated.
 */

#ifndef PIM_SIM_SCHEDULER_HH
#define PIM_SIM_SCHEDULER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/fiber.hh"
#include "sim/tasklet.hh"

namespace pim::sim {

class Dpu;

/** Scheduler running the tasklets of one DPU program launch. */
class TaskletScheduler
{
  public:
    /** Event-loop implementation; both produce identical simulations. */
    enum class Policy : uint8_t {
        Horizon,        ///< run-ahead horizon scheduling (default)
        NaiveReference, ///< yield-per-charge + O(T) scan (test oracle)
    };

    /** Checks this thread's launch context out (see the file comment). */
    explicit TaskletScheduler(Dpu &dpu, Policy policy = Policy::Horizon);

    /** Returns the launch context to this thread for the next launch. */
    ~TaskletScheduler();

    TaskletScheduler(const TaskletScheduler &) = delete;
    TaskletScheduler &operator=(const TaskletScheduler &) = delete;

    /**
     * Add one tasklet running @p body. Must precede runToCompletion().
     * The body is held by reference, not copied, so it must outlive the
     * run; the deleted overload below rejects temporaries.
     */
    void spawn(const std::function<void(Tasklet &)> &body);
    void spawn(std::function<void(Tasklet &)> &&body) = delete;

    /** Run all spawned tasklets to completion (single host thread). */
    void runToCompletion();

    /** Number of tasklets spawned. */
    size_t numTasklets() const { return count_; }

    /** Access a tasklet (e.g. to read its breakdown after the run). */
    const Tasklet &tasklet(size_t i) const;

    /** Max virtual clock across tasklets (the program's makespan). */
    uint64_t elapsedCycles() const;

    /** The active scheduling policy. */
    Policy policy() const { return policy_; }

    /**
     * Deschedule the running tasklet @p t until a later wake(): its
     * election key leaves the heap, control transfers to the best
     * runnable tasklet, and parkCurrent() returns only after @p t has
     * been woken and wins an election again. Fatal if @p t is the last
     * runnable tasklet (nothing could ever wake it — deadlock).
     */
    void parkCurrent(Tasklet &t);

    /**
     * Wake parked tasklet @p waiter: place it at election key
     * @p clock_key (which must be in the future of both the waiter and
     * the running tasklet @p current) and account the wait as
     * @p busy_wait_cycles of BusyWait in one lump — deliberately not a
     * simulation event; callers track elided events themselves.
     * @p current is the running tasklet issuing the wake; its run-ahead
     * horizon is tightened so it yields when it crosses the woken key.
     */
    void wake(Tasklet &waiter, uint64_t clock_key,
              uint64_t busy_wait_cycles, Tasklet &current);

    /**
     * The pipeline width — max(pipelineIssueInterval, unfinished
     * tasklets) — in effect at virtual instant @p key, reconstructed
     * from the finish history of the current launch. Only valid for
     * keys at or before the running tasklet's position (later finishes
     * are not known yet). If @p holds_until is given, it receives the
     * first finish key at or after @p key (UINT64_MAX if none so far):
     * the width is the same at every key in [key, *holds_until), which
     * lets a waker step many equal backoff batches in one division.
     */
    uint64_t pipelineWidthAt(uint64_t key,
                             uint64_t *holds_until = nullptr) const;

  private:
    friend class Tasklet;

    /**
     * The reusable state of a launch; index i of each vector belongs to
     * tasklet i. Pooled entries past the launch's count_ are idle, and
     * the fiber pool only grows for launches of two or more tasklets.
     */
    struct Context
    {
        std::vector<std::unique_ptr<Tasklet>> tasklets;
        std::vector<std::unique_ptr<Fiber>> fibers;
        /** Each tasklet's body, owned by the spawn() caller. */
        std::vector<const std::function<void(Tasklet &)> *> bodies;
        /**
         * Binary min-heap of the *suspended* unfinished tasklets'
         * election keys (the running tasklet is not in it). Only the
         * switched-out tasklet's key ever changes, so replace-top is
         * the only hot operation; no decrease-key / index tracking is
         * needed.
         */
        std::vector<uint64_t> heap;
        /**
         * Election keys at which tasklets of this launch finished, in
         * finish order. Drives pipelineWidthAt(): the unfinished count
         * at key K is numTasklets() minus the finishes strictly
         * before K.
         */
        std::vector<uint64_t> finishKeys;
    };

    /** This thread's contexts not checked out by a live scheduler. */
    static std::vector<Context> &idleContexts();

    /** Fiber entry of tasklet @p id: run its body, record the finish. */
    void runTasklet(unsigned id);

    /** Re-arm a pooled fiber (growing the pool) for each tasklet. */
    void armFibers();

    void runHorizon();
    void runNaive();

    /**
     * Called from the fiber of @p t when a charge crossed its horizon:
     * under Horizon, elect the best waiting tasklet and transfer
     * control to its fiber directly (one context switch, no scheduler
     * round trip); under NaiveReference, plain-yield to the event loop.
     */
    void switchOut(Tasklet &t);

    /** Tasklet id packed into the low bits of an election key. */
    static unsigned
    keyId(uint64_t key)
    {
        return static_cast<unsigned>(key)
            & ((1u << Tasklet::kIdBits) - 1u);
    }

    void heapPush(uint64_t key);
    uint64_t heapPop();
    /** Pop the min and insert @p key in one sift (the hot-path shape). */
    uint64_t heapReplaceTop(uint64_t key);

    Dpu &dpu_;
    Policy policy_;
    /** This thread's launch context, checked out for our lifetime. */
    Context ctx_;
    /** Tasklets spawned for this launch (a prefix of the pool). */
    unsigned count_ = 0;
    unsigned active_ = 0;
    bool running_ = false;
};

} // namespace pim::sim

#endif // PIM_SIM_SCHEDULER_HH

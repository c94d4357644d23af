#include "sim/mutex.hh"

#include <algorithm>
#include <atomic>

#include "sim/scheduler.hh"
#include "util/logging.hh"

namespace pim::sim {

namespace {

/** Atomic because allocators construct mutexes inside parallel
 *  multi-DPU launches. */
std::atomic<SimMutex::Mode> g_default_mode{SimMutex::Mode::Queue};

/** Election key of @p t's current position (clock in the high bits). */
uint64_t
electionKeyOf(const Tasklet &t)
{
    return (t.clock() << Tasklet::kIdBits) | t.id();
}

} // namespace

SimMutex::Mode
SimMutex::defaultMode()
{
    return g_default_mode.load(std::memory_order_relaxed);
}

void
SimMutex::setDefaultMode(Mode mode)
{
    g_default_mode.store(mode, std::memory_order_relaxed);
}

void
SimMutex::lock(Tasklet &t)
{
    if (mode_ == Mode::Spin)
        lockSpin(t);
    else
        lockQueue(t);
}

void
SimMutex::lockSpin(Tasklet &t)
{
    bool spun = false;
    uint64_t spin_instrs = kAttemptInstrs;
    for (;;) {
        if (!locked_) {
            locked_ = true;
            ++acquisitions_;
            if (spun)
                ++contended_;
            t.execute(kAttemptInstrs, CycleKind::Run);
            return;
        }
        spun = true;
        // Spin with bounded exponential backoff. Batching attempts keeps
        // the simulation event count manageable under heavy contention
        // without changing where the busy-wait cycles are attributed.
        //
        // Under horizon scheduling this loop is also what makes lock
        // hand-off cheap to simulate: `locked_` can only change while
        // this tasklet is switched out, i.e. when a charge below
        // crosses its horizon, so every re-check that runs ahead inside
        // the horizon is charged but switch-free. (The Queue mode
        // elides these re-check events entirely while reproducing their
        // timing analytically — see mutex.hh.)
        t.execute(spin_instrs, CycleKind::BusyWait);
        spin_instrs = std::min<uint64_t>(spin_instrs * 2, kMaxSpinInstrs);
    }
}

void
SimMutex::parkWaiter(Tasklet &t, uint32_t batch_idx)
{
    // The failed re-check at the current clock charges one backoff
    // batch in the spin model; account it virtually and deschedule.
    TaskletScheduler &sched = t.scheduler();
    const uint64_t key = electionKeyOf(t);
    const uint64_t width = sched.pipelineWidthAt(key);
    waiters_.push_back(
        {&t, key + ((batchInstrs(batch_idx) * width) << Tasklet::kIdBits),
         batch_idx + 1});
    ++parked_;
    ++elided_;
    sched.parkCurrent(t);
}

void
SimMutex::lockQueue(Tasklet &t)
{
    if (!locked_) {
        locked_ = true;
        ++acquisitions_;
        t.execute(kAttemptInstrs, CycleKind::Run);
        return;
    }
    if (resumeBatchIdx_.size() <= t.id())
        resumeBatchIdx_.resize(t.id() + 1, 0);
    uint32_t batch_idx = 0;
    for (;;) {
        parkWaiter(t, batch_idx); // blocks until unlock() wakes us
        if (!locked_) {
            // Our virtual re-check is the first one after the release:
            // acquire at exactly the clock the spin model would.
            locked_ = true;
            ++acquisitions_;
            ++contended_;
            t.execute(kAttemptInstrs, CycleKind::Run);
            return;
        }
        // A running tasklet grabbed the lock between the release and
        // our re-check (its attempt preceded ours in election order,
        // exactly as in the spin model). Keep the backoff sequence
        // going from where the wait schedule left off.
        batch_idx = resumeBatchIdx_[t.id()];
    }
}

void
SimMutex::unlock(Tasklet &t)
{
    PIM_ASSERT(locked_, "unlock of a free mutex");
    locked_ = false;
    if (!waiters_.empty()) {
        // The lock frees at the releaser's current election key (the
        // release charge below happens after the store, as in the spin
        // model). Advance every parked waiter's virtual spin schedule
        // past that point: re-checks before it found the lock held
        // (see mutex.hh for why no earlier re-check can have found it
        // free), each costing one backoff batch at the pipeline width
        // of its moment.
        TaskletScheduler &sched = t.scheduler();
        const uint64_t release_key = electionKeyOf(t);
        size_t winner = waiters_.size();
        uint64_t winner_key = UINT64_MAX;
        for (size_t i = 0; i < waiters_.size(); ++i) {
            Waiter &w = waiters_[i];
            while (w.nextCheckKey < release_key) {
                uint64_t holds_until = UINT64_MAX;
                const uint64_t width =
                    sched.pipelineWidthAt(w.nextCheckKey, &holds_until);
                const uint64_t step =
                    (batchInstrs(w.batchIdx) * width) << Tasklet::kIdBits;
                // Once the backoff is capped, every re-check before the
                // release and before the width can next change (a
                // finish) is the same step: take them in one division.
                uint64_t n = 1;
                const uint64_t limit = std::min(release_key, holds_until);
                if (w.batchIdx >= kCappedBatchIdx && limit > w.nextCheckKey)
                    n = (limit - w.nextCheckKey + step - 1) / step;
                w.nextCheckKey += n * step;
                w.batchIdx += static_cast<uint32_t>(n);
                elided_ += n;
            }
            if (w.nextCheckKey < winner_key) {
                winner_key = w.nextCheckKey;
                winner = i;
            }
        }
        // Wake the waiter whose re-check comes first, charging it the
        // BusyWait cycles the spin model accumulated between its park
        // clock and that re-check. It re-validates on resume.
        Waiter w = waiters_[winner];
        waiters_.erase(waiters_.begin() + static_cast<long>(winner));
        if (resumeBatchIdx_.size() <= w.t->id())
            resumeBatchIdx_.resize(w.t->id() + 1, 0);
        resumeBatchIdx_[w.t->id()] = w.batchIdx;
        const uint64_t busy_wait =
            (w.nextCheckKey >> Tasklet::kIdBits) - w.t->clock();
        ++woken_;
        sched.wake(*w.t, w.nextCheckKey, busy_wait, t);
    }
    t.execute(kReleaseInstrs, CycleKind::Run);
}

} // namespace pim::sim

#include "sim/scheduler.hh"

#include <algorithm>

#include "sim/dpu.hh"
#include "util/logging.hh"

namespace pim::sim {

TaskletScheduler::TaskletScheduler(Dpu &dpu, Policy policy)
    : dpu_(dpu), policy_(policy)
{
}

void
TaskletScheduler::spawn(std::function<void(Tasklet &)> body)
{
    PIM_ASSERT(!running_, "cannot spawn while running");
    PIM_ASSERT(tasklets_.size() < dpu_.config().maxTasklets,
               "DPU supports at most ", dpu_.config().maxTasklets,
               " tasklets");
    const unsigned id = static_cast<unsigned>(tasklets_.size());
    PIM_ASSERT(id < (1u << Tasklet::kIdBits),
               "election-key packing supports at most ",
               1u << Tasklet::kIdBits, " tasklets");
    tasklets_.push_back(std::make_unique<Tasklet>(dpu_, *this, id));
    Tasklet *t = tasklets_.back().get();
    fibers_.push_back(
        std::make_unique<Fiber>([this, body = std::move(body), t]() {
            body(*t);
            // Charges after the run loop (e.g. tests poking a finished
            // launch's tasklets) must never try to yield.
            t->horizonKey_ = UINT64_MAX;
            // The finish history lets mutex wakers replay the pipeline
            // width at any past virtual instant (pipelineWidthAt).
            finishKeys_.push_back(t->clockKey_);
        }));
    taskletRaw_.push_back(t);
    fiberRaw_.push_back(fibers_.back().get());
}

void
TaskletScheduler::runToCompletion()
{
    PIM_ASSERT(!running_, "scheduler already running");
    PIM_ASSERT(!tasklets_.empty(), "no tasklets spawned");
    running_ = true;
    active_ = static_cast<unsigned>(tasklets_.size());
    finishKeys_.clear();
    finishKeys_.reserve(tasklets_.size());
    if (policy_ == Policy::Horizon)
        runHorizon();
    else
        runNaive();
    PIM_ASSERT(active_ == 0, active_,
               " tasklet(s) still parked at the end of the launch — "
               "deadlock (a lock was never released?)");
    running_ = false;
}

uint64_t
TaskletScheduler::pipelineWidthAt(uint64_t key) const
{
    // Small linear scan: at most one entry per tasklet (<= 24), and
    // wakers only call this on the contended path.
    unsigned finished = 0;
    for (const uint64_t fk : finishKeys_)
        finished += fk < key ? 1u : 0u;
    const uint64_t unfinished = tasklets_.size() - finished;
    const uint64_t interval = dpu_.config().pipelineIssueInterval;
    return unfinished > interval ? unfinished : interval;
}

void
TaskletScheduler::parkCurrent(Tasklet &t)
{
    PIM_ASSERT(!t.parked_, "parking an already-parked tasklet");
    t.parked_ = true;
    if (policy_ != Policy::Horizon) {
        Fiber::yield();
        return;
    }
    if (heap_.empty())
        PIM_FATAL("tasklet ", t.id_, " parked with no runnable tasklet "
                  "left — deadlock (a lock was never released?)");
    // Like switchOut(), but t's key is *not* re-inserted: hand control
    // to the best waiter and leave t out of all elections until wake().
    const uint64_t winner = heapPop();
    taskletRaw_[keyId(winner)]->horizonKey_ =
        heap_.empty() ? UINT64_MAX : heap_.front();
    fiberRaw_[t.id_]->switchTo(*fiberRaw_[keyId(winner)]);
}

void
TaskletScheduler::wake(Tasklet &waiter, uint64_t clock_key,
                       uint64_t busy_wait_cycles, Tasklet &current)
{
    PIM_ASSERT(waiter.parked_, "waking a tasklet that is not parked");
    PIM_ASSERT(clock_key >= waiter.clockKey_,
               "wake would move a tasklet backwards in virtual time");
    waiter.parked_ = false;
    waiter.clockKey_ = clock_key;
    waiter.breakdown_.add(CycleKind::BusyWait, busy_wait_cycles);
    if (policy_ == Policy::Horizon) {
        heapPush(clock_key);
        // The waker's horizon was the previous heap front; the woken
        // key may now be the nearer election it must not run past.
        current.horizonKey_ = heap_.front();
    }
}

void
TaskletScheduler::heapPush(uint64_t key)
{
    // Cold path (launch setup only); the hot operation is
    // heapReplaceTop, which std:: has no equivalent for.
    heap_.push_back(key);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
}

uint64_t
TaskletScheduler::heapPop()
{
    const uint64_t top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty())
        heapReplaceTop(heap_.front());
    return top;
}

uint64_t
TaskletScheduler::heapReplaceTop(uint64_t key)
{
    uint64_t *h = heap_.data();
    const uint64_t top = h[0];
    const size_t n = heap_.size();
    size_t i = 0;
    for (;;) {
        const size_t l = 2 * i + 1;
        if (l >= n)
            break;
        const size_t r = l + 1;
        const size_t child = (r < n && h[r] < h[l]) ? r : l;
        if (h[child] >= key)
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = key;
    return top;
}

void
TaskletScheduler::switchOut(Tasklet &t)
{
    if (policy_ != Policy::Horizon) {
        Fiber::yield();
        return;
    }
    /*
     * t just lost the election to heap_[0] (its horizon was computed
     * from exactly that entry, and the heap cannot change while t
     * runs). Swap t in for the winner with a single sift-down, give the
     * winner its horizon against the new best waiter, and jump straight
     * into its fiber.
     */
    const uint64_t winner = heapReplaceTop(t.clockKey_);
    taskletRaw_[keyId(winner)]->horizonKey_ = heap_.front();
    fiberRaw_[t.id_]->switchTo(*fiberRaw_[keyId(winner)]);
}

void
TaskletScheduler::runHorizon()
{
    heap_.clear();
    heap_.reserve(tasklets_.size());
    for (size_t i = 0; i < tasklets_.size(); ++i)
        heapPush(tasklets_[i]->clockKey_);

    while (!heap_.empty()) {
        const uint64_t cur = heapPop();
        Tasklet &t = *taskletRaw_[keyId(cur)];
        // The best waiter's key is exactly the largest own key at which
        // `t` still wins the "(smallest clock, lowest id)" election;
        // with no waiters `t` can never lose.
        t.horizonKey_ = heap_.empty() ? UINT64_MAX : heap_.front();
        fiberRaw_[keyId(cur)]->resume();
        // Control only returns here when a fiber (not necessarily
        // cur's — losers switch directly into winners and park
        // themselves in the heap) ran its body to completion.
        --active_;
    }
}

void
TaskletScheduler::runNaive()
{
    // The original discrete-event loop where each event is one cycle
    // charge: resume the min-(clock, id) tasklet, which yields right
    // after its next charge (its horizon is pinned to its own key, so
    // any charge crosses it).
    for (;;) {
        int next = -1;
        uint64_t best = UINT64_MAX;
        for (size_t i = 0; i < tasklets_.size(); ++i) {
            if (fibers_[i]->finished() || tasklets_[i]->parked_)
                continue;
            if (tasklets_[i]->clockKey_ < best) {
                best = tasklets_[i]->clockKey_;
                next = static_cast<int>(i);
            }
        }
        if (next < 0)
            break;
        Tasklet &t = *tasklets_[static_cast<size_t>(next)];
        t.horizonKey_ = t.clockKey_;
        fibers_[static_cast<size_t>(next)]->resume();
        t.horizonKey_ = UINT64_MAX;
        if (fibers_[static_cast<size_t>(next)]->finished())
            --active_;
    }
}

uint64_t
TaskletScheduler::elapsedCycles() const
{
    uint64_t best = 0;
    for (const auto &t : tasklets_)
        best = std::max(best, t->clock());
    return best;
}

} // namespace pim::sim

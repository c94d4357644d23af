#include "sim/scheduler.hh"

#include <algorithm>

#include "sim/dpu.hh"
#include "util/logging.hh"

namespace pim::sim {

TaskletScheduler::TaskletScheduler(Dpu &dpu, Policy policy)
    : dpu_(dpu), policy_(policy)
{
    auto &idle = idleContexts();
    if (!idle.empty()) {
        ctx_ = std::move(idle.back());
        idle.pop_back();
    }
}

TaskletScheduler::~TaskletScheduler()
{
    idleContexts().push_back(std::move(ctx_));
}

std::vector<TaskletScheduler::Context> &
TaskletScheduler::idleContexts()
{
    thread_local std::vector<Context> idle;
    return idle;
}

void
TaskletScheduler::spawn(const std::function<void(Tasklet &)> &body)
{
    PIM_ASSERT(!running_, "cannot spawn while running");
    PIM_ASSERT(count_ < dpu_.config().maxTasklets,
               "DPU supports at most ", dpu_.config().maxTasklets,
               " tasklets");
    const unsigned id = count_;
    PIM_ASSERT(id < (1u << Tasklet::kIdBits),
               "election-key packing supports at most ",
               1u << Tasklet::kIdBits, " tasklets");
    if (id < ctx_.tasklets.size()) {
        ctx_.bodies[id] = &body;
    } else {
        ctx_.tasklets.push_back(std::unique_ptr<Tasklet>(new Tasklet));
        ctx_.bodies.push_back(&body);
    }
    ctx_.tasklets[id]->rearm(dpu_, *this, id);
    ++count_;
}

void
TaskletScheduler::armFibers()
{
    for (unsigned id = 0; id < count_; ++id) {
        // The entry captures two words, so it fits std::function's
        // inline buffer: re-arming a pooled fiber allocates nothing.
        std::function<void()> entry = [this, id] { runTasklet(id); };
        if (id < ctx_.fibers.size())
            ctx_.fibers[id]->rearm(std::move(entry));
        else
            ctx_.fibers.push_back(std::make_unique<Fiber>(std::move(entry)));
    }
}

const Tasklet &
TaskletScheduler::tasklet(size_t i) const
{
    PIM_ASSERT(i < count_, "tasklet ", i, " of a ", count_,
               "-tasklet launch");
    return *ctx_.tasklets[i];
}

void
TaskletScheduler::runTasklet(unsigned id)
{
    Tasklet &t = *ctx_.tasklets[id];
    (*ctx_.bodies[id])(t);
    // Charges after the run loop (e.g. tests poking a finished
    // launch's tasklets) must never try to yield.
    t.horizonKey_ = UINT64_MAX;
    // The finish history lets mutex wakers replay the pipeline width
    // at any past virtual instant (pipelineWidthAt).
    ctx_.finishKeys.push_back(t.clockKey_);
}

void
TaskletScheduler::runToCompletion()
{
    PIM_ASSERT(!running_, "scheduler already running");
    PIM_ASSERT(count_ > 0, "no tasklets spawned");
    running_ = true;
    active_ = count_;
    ctx_.finishKeys.clear();
    ctx_.finishKeys.reserve(count_);
    if (policy_ == Policy::Horizon && count_ == 1) {
        // A lone tasklet never loses an election, so its horizon stays
        // at UINT64_MAX and no charge can switch: run the body right
        // here on the caller's stack. Parking it is still fatal, since
        // the heap it would hand control to is empty (every run
        // leaves it so).
        runTasklet(0);
        --active_;
    } else {
        armFibers();
        if (policy_ == Policy::Horizon)
            runHorizon();
        else
            runNaive();
    }
    PIM_ASSERT(active_ == 0, active_,
               " tasklet(s) still parked at the end of the launch — "
               "deadlock (a lock was never released?)");
    running_ = false;
}

uint64_t
TaskletScheduler::pipelineWidthAt(uint64_t key, uint64_t *holds_until) const
{
    // Small linear scan: at most one entry per tasklet (<= 24), and
    // wakers only call this on the contended path.
    unsigned finished = 0;
    uint64_t next_finish = UINT64_MAX;
    for (const uint64_t fk : ctx_.finishKeys) {
        finished += fk < key ? 1u : 0u;
        if (fk >= key && fk < next_finish)
            next_finish = fk;
    }
    if (holds_until != nullptr)
        *holds_until = next_finish;
    const uint64_t unfinished = count_ - finished;
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
    if (ctx_.heap.empty())
        PIM_FATAL("tasklet ", t.id_, " parked with no runnable tasklet "
                  "left — deadlock (a lock was never released?)");
    // Like switchOut(), but t's key is *not* re-inserted: hand control
    // to the best waiter and leave t out of all elections until wake().
    const uint64_t winner = heapPop();
    ctx_.tasklets[keyId(winner)]->horizonKey_ =
        ctx_.heap.empty() ? UINT64_MAX : ctx_.heap.front();
    ctx_.fibers[t.id_]->switchTo(*ctx_.fibers[keyId(winner)]);
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
        current.horizonKey_ = ctx_.heap.front();
    }
}

void
TaskletScheduler::heapPush(uint64_t key)
{
    // Cold path (launch setup only); the hot operation is
    // heapReplaceTop, which std:: has no equivalent for.
    ctx_.heap.push_back(key);
    std::push_heap(ctx_.heap.begin(), ctx_.heap.end(), std::greater<>{});
}

uint64_t
TaskletScheduler::heapPop()
{
    auto &heap = ctx_.heap;
    const uint64_t top = heap.front();
    heap.front() = heap.back();
    heap.pop_back();
    if (!heap.empty())
        heapReplaceTop(heap.front());
    return top;
}

uint64_t
TaskletScheduler::heapReplaceTop(uint64_t key)
{
    uint64_t *h = ctx_.heap.data();
    const uint64_t top = h[0];
    const size_t n = ctx_.heap.size();
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
     * t just lost the election to the heap's front (its horizon was computed
     * from exactly that entry, and the heap cannot change while t
     * runs). Swap t in for the winner with a single sift-down, give the
     * winner its horizon against the new best waiter, and jump straight
     * into its fiber.
     */
    const uint64_t winner = heapReplaceTop(t.clockKey_);
    ctx_.tasklets[keyId(winner)]->horizonKey_ = ctx_.heap.front();
    ctx_.fibers[t.id_]->switchTo(*ctx_.fibers[keyId(winner)]);
}

void
TaskletScheduler::runHorizon()
{
    auto &heap = ctx_.heap;
    heap.clear();
    heap.reserve(count_);
    for (unsigned i = 0; i < count_; ++i)
        heapPush(ctx_.tasklets[i]->clockKey_);

    while (!heap.empty()) {
        const uint64_t cur = heapPop();
        Tasklet &t = *ctx_.tasklets[keyId(cur)];
        // The best waiter's key is exactly the largest own key at which
        // `t` still wins the "(smallest clock, lowest id)" election;
        // with no waiters `t` can never lose.
        t.horizonKey_ = heap.empty() ? UINT64_MAX : heap.front();
        ctx_.fibers[keyId(cur)]->resume();
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
        for (unsigned i = 0; i < count_; ++i) {
            if (ctx_.fibers[i]->finished() || ctx_.tasklets[i]->parked_)
                continue;
            if (ctx_.tasklets[i]->clockKey_ < best) {
                best = ctx_.tasklets[i]->clockKey_;
                next = static_cast<int>(i);
            }
        }
        if (next < 0)
            break;
        Tasklet &t = *ctx_.tasklets[static_cast<size_t>(next)];
        Fiber &f = *ctx_.fibers[static_cast<size_t>(next)];
        t.horizonKey_ = t.clockKey_;
        f.resume();
        t.horizonKey_ = UINT64_MAX;
        if (f.finished())
            --active_;
    }
}

uint64_t
TaskletScheduler::elapsedCycles() const
{
    uint64_t best = 0;
    for (unsigned i = 0; i < count_; ++i)
        best = std::max(best, ctx_.tasklets[i]->clock());
    return best;
}

} // namespace pim::sim

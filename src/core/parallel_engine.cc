#include "core/parallel_engine.hh"

#include <algorithm>
#include <climits>
#include <cstdlib>

#include "util/logging.hh"

namespace pim::core {

namespace {

/** Set while the current thread is a pool worker running a job; nested
 *  forEach() calls from workload code then run inline instead of
 *  re-entering the dispatcher (which would deadlock on callMutex_). */
thread_local bool tl_in_pool_worker = false;

} // namespace

unsigned
resolveSimThreads(unsigned requested)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("PIM_SIM_THREADS")) {
        // An empty value counts as unset; anything else must be a
        // positive integer that fits an unsigned — a typo silently
        // falling back to the hardware thread count, or a huge value
        // wrapping to a small one, would quietly change every
        // experiment.
        if (*env != '\0') {
            char *end = nullptr;
            const long v = std::strtol(env, &end, 10);
            if (end == env || *end != '\0' || v <= 0 || v > UINT_MAX)
                PIM_FATAL("PIM_SIM_THREADS must be a positive integer, "
                          "got '", env, "'");
            return static_cast<unsigned>(v);
        }
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

ParallelDpuEngine::ParallelDpuEngine(unsigned num_threads)
    : threads_(resolveSimThreads(num_threads))
{
}

ParallelDpuEngine::~ParallelDpuEngine()
{
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        stopping_ = true;
    }
    wakeCv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

unsigned
ParallelDpuEngine::liveWorkers() const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    return static_cast<unsigned>(workers_.size());
}

void
ParallelDpuEngine::ensureWorkers(size_t count) const
{
    std::lock_guard<std::mutex> lock(poolMutex_);
    while (workers_.size() < count) {
        const unsigned idx = static_cast<unsigned>(workers_.size());
        workers_.emplace_back([this, idx]() { workerMain(idx); });
    }
}

void
ParallelDpuEngine::runChunks() const
{
    const std::function<void(size_t)> &fn = *job_.fn;
    for (;;) {
        const size_t c =
            job_.nextChunk.fetch_add(1, std::memory_order_relaxed);
        if (c >= job_.numChunks)
            return;
        const size_t begin = c * job_.chunk;
        const size_t end = std::min(begin + job_.chunk, job_.n);
        try {
            for (size_t i = begin; i < end; ++i)
                fn(i);
        } catch (...) {
            std::lock_guard<std::mutex> lock(poolMutex_);
            if (!job_.firstError)
                job_.firstError = std::current_exception();
            // Drain remaining chunks without running them so the other
            // workers finish the job promptly.
            job_.nextChunk.store(job_.numChunks,
                                 std::memory_order_relaxed);
            return;
        }
    }
}

void
ParallelDpuEngine::workerMain(unsigned worker_idx) const
{
    tl_in_pool_worker = true;

    uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(poolMutex_);
    for (;;) {
        wakeCv_.wait(lock, [&]() {
            return stopping_ || generation_ != seen;
        });
        if (stopping_)
            return;
        seen = generation_;
        if (worker_idx >= job_.participants)
            continue;
        lock.unlock();
        runChunks();
        lock.lock();
        if (++job_.workersDone == job_.participants)
            doneCv_.notify_all();
    }
}

void
ParallelDpuEngine::forEach(size_t n,
                           const std::function<void(size_t)> &fn) const
{
    if (n == 0)
        return;

    if (tl_in_pool_worker || threads_ <= 1 || n == 1) {
        for (size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    // One dispatched job at a time; concurrent top-level callers queue
    // here (workload code never calls this concurrently, but tests do).
    std::lock_guard<std::mutex> call(callMutex_);

    // Grab granularity: coarse enough to amortize the atomic fetch when
    // indices are cheap (thousands of small DPU launches), fine enough
    // that a handful of expensive indices (heavy workload shards) still
    // spread across all workers.
    const size_t chunk = std::clamp<size_t>(
        n / (static_cast<size_t>(threads_) * 8), 1, kMaxGrabChunk);
    const size_t num_chunks = (n + chunk - 1) / chunk;
    const size_t participants = std::min<size_t>(threads_, num_chunks);

    ensureWorkers(participants);
    {
        std::lock_guard<std::mutex> lock(poolMutex_);
        job_.fn = &fn;
        job_.n = n;
        job_.chunk = chunk;
        job_.numChunks = num_chunks;
        job_.participants = participants;
        job_.nextChunk.store(0, std::memory_order_relaxed);
        job_.workersDone = 0;
        job_.firstError = nullptr;
        ++generation_;
    }
    wakeCv_.notify_all();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(poolMutex_);
        doneCv_.wait(lock, [&]() {
            return job_.workersDone == job_.participants;
        });
        error = job_.firstError;
        job_.fn = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

} // namespace pim::core

#include "workloads/llm/serving_engine.hh"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <tuple>
#include <vector>

#include "alloc/pim_malloc.hh"
#include "core/pim_system.hh"
#include "telemetry/registry.hh"
#include "util/logging.hh"
#include "util/stats.hh"
#include "workloads/llm/kv_cache.hh"
#include "workloads/microbench.hh"

namespace pim::workloads::llm {

double
calibratedAllocLatency(core::AllocatorKind kind, unsigned tasklets,
                       uint32_t block_bytes)
{
    using Key = std::tuple<core::AllocatorKind, unsigned, uint32_t>;
    static std::mutex mu;
    static std::map<Key, double> cache;
    const Key key{kind, tasklets, block_bytes};
    {
        std::lock_guard<std::mutex> lock(mu);
        if (const auto it = cache.find(key); it != cache.end())
            return it->second;
    }
    // Run the microbenchmark outside the lock (it is deterministic, so
    // a racing duplicate run computes the same value).
    MicrobenchConfig mb;
    mb.allocator = kind;
    mb.tasklets = tasklets;
    mb.allocsPerTasklet = 128;
    mb.allocSize = block_bytes;
    mb.freeEachAlloc = false;
    const MicrobenchResult r = runMicrobench(mb);
    const double sec = r.avgLatencyUs * 1e-6;
    std::lock_guard<std::mutex> lock(mu);
    cache.emplace(key, sec);
    return sec;
}

namespace {

/**
 * Memory-imposed concurrent-batch bound of one scheme when the KV cache
 * is sharded across @p num_dpus DPUs (the whole system in lockstep
 * mode, the decode partition in disaggregated mode).
 */
unsigned
batchLimit(const ServingScheme &scheme, const ServingConfig &cfg,
           unsigned num_dpus)
{
    const alloc::PimMallocConfig heap_cfg;
    const uint64_t heap = heap_cfg.heapBytes;
    const uint64_t per_token = cfg.model.kvBytesPerTokenPerDpu(num_dpus);
    if (!scheme.allocator) {
        // Static: every slot reserves the model's full context window.
        return static_cast<unsigned>(
            heap / (per_token * cfg.staticReserveTokens));
    }
    // Dynamic: requests occupy only their actual (block-rounded) size;
    // in this trace every request peaks at prompt+output tokens.
    const uint64_t per_req_bytes =
        (per_token * (cfg.promptTokens + cfg.outputTokens)
         + cfg.kvBlockBytes - 1)
        / cfg.kvBlockBytes * cfg.kvBlockBytes;
    // Leave headroom for allocator metadata and pre-populated spans.
    return static_cast<unsigned>(heap * 95 / 100 / per_req_bytes);
}

/** The Poisson arrival times of the serving trace. */
std::vector<double>
arrivalTimes(const ServingConfig &cfg)
{
    util::Rng rng(cfg.seed);
    std::vector<double> arrivals(cfg.numRequests);
    double at = 0.0;
    for (auto &a : arrivals) {
        at += rng.exponential(cfg.arrivalRatePerSec);
        a = at;
    }
    return arrivals;
}

struct ActiveRequest
{
    unsigned id;
    unsigned context; ///< tokens currently in the KV cache
    unsigned generated = 0;
    /** Completion time of the request's latest token (TPOT base). */
    double lastTokenSec = 0.0;
};

/** Per-materialized-DPU prefill state, persistent across waves. Each
 *  slot is only ever touched by the engine worker simulating it. */
struct PrefillSlot
{
    std::unique_ptr<alloc::Allocator> allocator; ///< dynamic schemes
    std::unique_ptr<KvCacheManager> kv;
    /** Requests of the previous wave (their transient prompt KV is
     *  released at the start of the next wave, post-migration). */
    unsigned prevWaveRequests = 0;
};

} // namespace

ServingEngine::ServingEngine(const ServingScheme &scheme,
                             const ServingEngineConfig &cfg)
    : scheme_(scheme), cfg_(cfg)
{
}

ServingResult
ServingEngine::run()
{
    return cfg_.mode == ServingMode::Disaggregated ? runDisaggregated()
                                                   : runLockstep();
}

ServingResult
ServingEngine::runLockstep()
{
    const ServingConfig &cfg = cfg_.base;
    ServingResult res;
    res.maxBatchLimit = batchLimit(scheme_, cfg, cfg.numDpus);
    // A zero batch bound (per-request reservation exceeds the heap)
    // would spin the admission loop forever once arrivals run out.
    PIM_ASSERT(res.maxBatchLimit >= 1,
               "KV heap cannot hold a single request (", cfg.numDpus,
               " DPUs): shard across more DPUs or shrink the reserve");
    res.allocSecPerBlock = scheme_.allocator
        ? calibratedAllocLatency(*scheme_.allocator, cfg.allocTasklets,
                                 cfg.kvBlockBytes)
        : 0.0;

    const uint64_t per_token = cfg.model.kvBytesPerTokenPerDpu(cfg.numDpus);
    const double blocks_per_token =
        static_cast<double>(per_token) / cfg.kvBlockBytes;
    // Allocations are spread over the DPU's tasklets; one "wave" of
    // concurrent allocations costs one calibrated latency.
    auto allocSeconds = [&](double blocks) {
        if (!scheme_.allocator || blocks <= 0)
            return 0.0;
        const double waves =
            std::ceil(blocks / static_cast<double>(cfg.allocTasklets));
        return waves * res.allocSecPerBlock;
    };

    const std::vector<double> arrivals = arrivalTimes(cfg);

    // The serving clock lives on the unified runtime's host timeline:
    // each lockstep decode step occupies the host for its composed
    // step latency, and idle gaps wait on the next Poisson arrival.
    // (The PIM-side per-block allocation cost feeding each step was
    // calibrated above by running the real allocator on the runtime.)
    core::PimSystemConfig scfg;
    scfg.numDpus = cfg.numDpus;
    scfg.sampleDpus = 1; // analytic steps: no DPU programs launched
    scfg.simThreads = 1;
    core::PimSystem sys(scfg);
    core::CommandQueue clock(sys);
    if (cfg.recorder != nullptr)
        clock.attachRecorder(cfg.recorder);
    // Lockstep keeps its util::Percentile result path (reported
    // figures are sample-exact); a registry additionally gets the
    // histogram/SLO view of the same step latencies.
    telemetry::Registry *met = cfg.metrics;
    telemetry::Histogram *tpot_reg = nullptr;
    if (met != nullptr) {
        clock.attachMetrics(met);
        tpot_reg = &met->histogram("serving.tpot_sec");
        if (cfg.sloTpotSec > 0.0)
            met->slo().declare("serving.tpot", cfg.sloTpotSec);
    }

    std::deque<unsigned> waiting;
    std::vector<ActiveRequest> active;
    unsigned next_arrival = 0;
    unsigned completed = 0;
    uint64_t tokens_out = 0;
    util::Percentile tpot;

    while (completed < cfg.numRequests) {
        const double now = clock.sync();
        // Admit arrivals that happened before `now`.
        while (next_arrival < cfg.numRequests
               && arrivals[next_arrival] <= now) {
            waiting.push_back(next_arrival);
            ++next_arrival;
        }
        double prefill_blocks = 0.0;
        while (!waiting.empty() && active.size() < res.maxBatchLimit) {
            active.push_back({waiting.front(), cfg.promptTokens, 0, 0.0});
            waiting.pop_front();
            // Prefill fills the prompt's KV blocks in one burst.
            prefill_blocks += blocks_per_token * cfg.promptTokens;
        }

        if (active.empty()) {
            // Idle until the next arrival.
            if (next_arrival < cfg.numRequests)
                clock.hostIdleUntil(arrivals[next_arrival],
                                    {.label = "wait:arrival"});
            continue;
        }

        // One decode step: every active request reads its whole per-DPU
        // KV slice (bandwidth-bound attention) and appends one token.
        uint64_t kv_bytes = 0;
        for (const auto &r : active)
            kv_bytes += per_token * r.context;
        const double attn_sec =
            static_cast<double>(kv_bytes) / cfg.mramBandwidth;
        const double alloc_sec =
            allocSeconds(prefill_blocks
                         + blocks_per_token
                             * static_cast<double>(active.size()));
        const double step_sec = cfg.stepOverheadSeconds + cfg.fcStepSeconds
            + attn_sec + alloc_sec;
        if (clock.recorder() != nullptr) {
            clock.hostBusy(step_sec,
                           {.label = "step b"
                                + std::to_string(active.size())});
        } else {
            clock.hostBusy(step_sec);
        }

        res.peakBatchObserved = std::max<unsigned>(
            res.peakBatchObserved, static_cast<unsigned>(active.size()));

        for (auto &r : active) {
            ++r.context;
            ++r.generated;
            ++tokens_out;
            tpot.add(step_sec);
            if (met != nullptr) {
                tpot_reg->add(step_sec);
                met->slo().observe("serving.tpot", step_sec);
            }
        }
        std::erase_if(active, [&](const ActiveRequest &r) {
            if (r.generated >= cfg.outputTokens) {
                ++completed;
                return true;
            }
            return false;
        });
    }

    res.makespanSec = clock.sync();
    res.throughputTokensPerSec =
        static_cast<double>(tokens_out)
        / std::max(res.makespanSec, 1e-9);
    res.tpotP50Ms = tpot.p50() * 1e3;
    res.tpotP95Ms = tpot.p95() * 1e3;
    res.tpotP99Ms = tpot.p99() * 1e3;
    return res;
}

/**
 * The full state of one disaggregated serving pipeline between step()
 * calls: the per-slot prefill heaps, the admission queues, the active
 * batch, and the double-buffered shipping events. One step() is exactly
 * one iteration of the historical runDisaggregated loop, so a
 * standalone run of the task reproduces it number for number.
 */
struct DisaggServingTask::Impl
{
    Impl(const ServingScheme &scheme_in,
         const ServingEngineConfig &ecfg, core::CommandQueue &q,
         const core::DpuSet &partition, core::TenantId tenant_in);

    void step();
    void rebuildParts();
    void onRankFailed(unsigned rank, double failSec);
    void onReplacementGranted(const core::DpuSet &replacement);

    struct Wave
    {
        std::vector<unsigned> reqs;
        core::Event migrated; ///< prompt KV landed on decode ranks
    };

    ServingScheme scheme;
    ServingConfig cfg;
    core::CommandQueue &queue;
    core::PimSystem &sys;
    core::TenantId tenant;
    bool traced;
    /** Prefill / decode split of the owned partition. */
    std::pair<core::DpuSet, core::DpuSet> parts;

    // Derived constants.
    uint64_t perTokenDec = 0;
    uint64_t perTokenPre = 0;
    double blocksPerToken = 0.0;
    uint64_t promptBytesPre = 0;
    unsigned maxPrefillBatch = 1;
    std::vector<double> arrivals;

    // Pipeline state.
    std::vector<PrefillSlot> slots;
    std::deque<unsigned> waiting;
    std::deque<Wave> inflight;
    std::vector<ActiveRequest> active;
    unsigned inflightReqs = 0;
    unsigned nextArrival = 0;
    unsigned completed = 0;
    unsigned stepIdx = 0;
    uint64_t tokensOut = 0;
    uint64_t shippedBytes = 0;
    /**
     * Latency distributions as telemetry histograms: the reported
     * percentiles and the registry-exported ones are one and the same
     * state, and co-tenant tasks merge deterministically.
     */
    telemetry::Histogram tpot;
    telemetry::Histogram ttft;
    /** Registry sinks (all null when the queue has no registry). */
    telemetry::Registry *met = nullptr;
    telemetry::Histogram *tpotReg = nullptr;
    telemetry::Histogram *ttftReg = nullptr;
    core::Event shipPrev1 = core::kNoEvent;
    core::Event shipPrev2 = core::kNoEvent;
    double now = 0.0;

    // Fault tolerance (all of it inert — and the pipeline numerically
    // unchanged — unless the queue has a fault::FaultInjector
    // attached). The partition is re-derived from these rank-id lists
    // whenever a rank leaves (death) or joins (replacement grant).
    FaultPolicy policy;
    std::vector<unsigned> prefillRankIds;
    std::vector<unsigned> decodeRankIds;
    /** One rank death awaiting its replacement grant (Recover). */
    struct PendingFail
    {
        unsigned rank;
        double failSec;
        bool wasPrefill;
    };
    std::deque<PendingFail> pendingFails;
    /** Fail times of failures that will never be repaired (Drop). */
    std::vector<double> unrepairedFailSecs;
    unsigned lostReqs = 0;
    unsigned lostStepsN = 0;
    unsigned failures = 0;
    unsigned recoveredCount = 0;
    uint64_t recoveryBytes = 0;
    double mttrSum = 0.0;
    double downtime = 0.0;

    ServingResult res; ///< partition/limit fields filled up front

    double
    allocSeconds(double blocks) const
    {
        if (!scheme.allocator || blocks <= 0)
            return 0.0;
        const double waves = std::ceil(
            blocks / static_cast<double>(cfg.allocTasklets));
        return waves * res.allocSecPerBlock;
    }
};

DisaggServingTask::Impl::Impl(const ServingScheme &scheme_in,
                              const ServingEngineConfig &ecfg,
                              core::CommandQueue &q,
                              const core::DpuSet &partition,
                              core::TenantId tenant_in)
    : scheme(scheme_in), cfg(ecfg.base), queue(q), sys(q.system()),
      tenant(tenant_in), traced(q.recorder() != nullptr),
      parts(partition.partitionRanks(ecfg.prefillRankFraction)),
      policy(ecfg.faultPolicy)
{
    PIM_ASSERT(partition.ranks().size() >= 2,
               "disaggregated serving needs at least two ranks");
    prefillRankIds = parts.first.ranks();
    decodeRankIds = parts.second.ranks();
    const core::DpuSet &prefill_set = parts.first;
    const core::DpuSet &decode_set = parts.second;
    res.prefillRanks =
        static_cast<unsigned>(prefill_set.ranks().size());
    res.decodeRanks = static_cast<unsigned>(decode_set.ranks().size());
    const unsigned prefill_dpus = prefill_set.size();
    const unsigned decode_dpus = decode_set.size();

    res.maxBatchLimit = batchLimit(scheme, cfg, decode_dpus);
    PIM_ASSERT(res.maxBatchLimit >= 1,
               "decode partition too small: zero-request batch limit");
    res.allocSecPerBlock = scheme.allocator
        ? calibratedAllocLatency(*scheme.allocator, cfg.allocTasklets,
                                 cfg.kvBlockBytes)
        : 0.0;

    perTokenDec = cfg.model.kvBytesPerTokenPerDpu(decode_dpus);
    perTokenPre = cfg.model.kvBytesPerTokenPerDpu(prefill_dpus);
    blocksPerToken =
        static_cast<double>(perTokenDec) / cfg.kvBlockBytes;

    // One prefill wave's prompts live transiently in the prefill-rank
    // heaps until the next wave releases them; bound the wave so a
    // whole wave fits.
    const alloc::PimMallocConfig heap_cfg;
    promptBytesPre = perTokenPre * cfg.promptTokens;
    maxPrefillBatch = std::max<unsigned>(
        1,
        static_cast<unsigned>(heap_cfg.heapBytes * 95 / 100
                              / std::max<uint64_t>(promptBytesPre, 1)));

    arrivals = arrivalTimes(cfg);

    met = queue.metricsRegistry();
    if (met != nullptr) {
        tpotReg = &met->histogram("serving.tpot_sec");
        ttftReg = &met->histogram("serving.ttft_sec");
        if (cfg.sloTpotSec > 0.0)
            met->slo().declare("serving.tpot", cfg.sloTpotSec);
        if (cfg.sloTtftSec > 0.0)
            met->slo().declare("serving.ttft", cfg.sloTtftSec);
    }

    // Per-slot prefill state (each slot is touched by exactly one
    // engine worker). Dynamic schemes bring their allocator up in one
    // deployment-time launch before the trace starts, so the (real,
    // possibly large) init cost lands visibly on the prefill ranks at
    // t=0 instead of being dropped as untimed setup inside a wave.
    slots.resize(sys.sampleCount());
    const unsigned tasklets = cfg.allocTasklets;
    if (scheme.allocator) {
        queue.launchProgram(
            prefill_set,
            [this, tasklets](sim::Dpu &dpu, unsigned global) {
                PrefillSlot &st = slots[sys.slotOf(global)];
                core::AllocatorOverrides ov;
                ov.numTasklets = tasklets;
                st.allocator =
                    core::makeAllocator(dpu, *scheme.allocator, ov);
                st.kv = std::make_unique<KvCacheManager>(
                    *st.allocator, cfg.kvBlockBytes);
                dpu.run(1,
                        [&](sim::Tasklet &t) { st.allocator->init(t); });
            },
            {.label = traced ? "alloc init" : "", .tenant = tenant});
    }
}

void
DisaggServingTask::Impl::step()
{
    const core::DpuSet &prefill_set = parts.first;
    const core::DpuSet &decode_set = parts.second;
    const unsigned tasklets = cfg.allocTasklets;

    // Admit arrivals that happened before `now`.
    while (nextArrival < cfg.numRequests
           && arrivals[nextArrival] <= now) {
        waiting.push_back(nextArrival);
        ++nextArrival;
    }

    // Launch a prefill wave on the prefill ranks if there is work
    // and both the decode batch bound and the prefill heap allow.
    const unsigned in_pipe =
        static_cast<unsigned>(active.size()) + inflightReqs;
    if (!waiting.empty() && in_pipe < res.maxBatchLimit) {
        const unsigned room =
            std::min(res.maxBatchLimit - in_pipe, maxPrefillBatch);
        Wave w;
        while (!waiting.empty() && w.reqs.size() < room) {
            w.reqs.push_back(waiting.front());
            waiting.pop_front();
        }
        const unsigned k = static_cast<unsigned>(w.reqs.size());
        // The host dispatches the wave no earlier than its newest
        // member's arrival (the host timeline lags `now` when the
        // decode ranks pace the pipeline, and a prefill must not
        // start before its request exists). Arrivals are sorted,
        // so the last member is the newest.
        queue.hostIdleUntil(arrivals[w.reqs.back()],
                            {.label = "wait:arrival",
                             .tenant = tenant});
        const core::Event pf = queue.launchProgram(
            prefill_set,
            [this, k, tasklets](sim::Dpu &dpu, unsigned global) {
                PrefillSlot &st = slots[sys.slotOf(global)];
                const uint64_t prompt_bytes_pre = promptBytesPre;
                if (st.kv != nullptr) {
                    // Recycle the previous wave's transient prompt
                    // KV (it migrated long ago), then allocate and
                    // fill this wave's blocks with the real
                    // allocator under tasklet concurrency.
                    const unsigned prev = st.prevWaveRequests;
                    dpu.run(tasklets, [&](sim::Tasklet &t) {
                        for (unsigned r = t.id(); r < prev;
                             r += tasklets)
                            st.kv->releaseRequest(t, r);
                        for (unsigned r = t.id(); r < k;
                             r += tasklets) {
                            if (!st.kv->appendBytes(
                                    t, r, prompt_bytes_pre))
                                break; // heap exhausted: keep rest
                        }
                    });
                    st.prevWaveRequests = k;
                } else {
                    // Static: stream the prompts into the
                    // pre-reserved slabs (pure DMA cost).
                    const uint64_t total = prompt_bytes_pre * k;
                    dpu.run(tasklets, [&](sim::Tasklet &t) {
                        constexpr uint64_t chunk = 2048;
                        for (uint64_t off = t.id() * chunk;
                             off < total; off += chunk * tasklets)
                            t.dmaWrite(
                                0, static_cast<uint32_t>(
                                       std::min(chunk, total - off)));
                    });
                }
            },
            {.label = traced ? "prefill b" + std::to_string(k) : "",
             .tenant = tenant});
        // Ship the wave's prompt KV: gather off the prefill ranks,
        // then land it (double-buffered) on the decode ranks.
        const core::Event gather = queue.memcpyAsync(
            prefill_set, promptBytesPre * k,
            core::CopyDirection::PimToHost,
            {.after = pf,
             .label = traced ? "kv gather b" + std::to_string(k) : "",
             .tenant = tenant});
        w.migrated = queue.memcpyBufferedAsync(
            decode_set, perTokenDec * cfg.promptTokens * k,
            core::CopyDirection::HostToPim,
            {.after = gather,
             .label = traced ? "kv migrate b" + std::to_string(k) : "",
             .tenant = tenant});
        shippedBytes += promptBytesPre * k * prefill_set.size()
            + perTokenDec * cfg.promptTokens * k * decode_set.size();
        inflightReqs += k;
        inflight.push_back(std::move(w));
        ++res.prefillWaves;
    }

    // Activate waves whose prompt KV has landed by `now` (their
    // first decodable step starts at or after `now`, so the
    // migration is complete before attention reads it). Under fault
    // injection a wave's migration chain may have failed instead —
    // those waves never activate: Drop loses their requests, Recover
    // re-queues them at the head of the admission queue (they were
    // admitted first) to re-prefill on the repaired partition.
    const bool faults = queue.faultInjector() != nullptr;
    while (!inflight.empty()) {
        if (faults && queue.eventFailed(inflight.front().migrated)) {
            Wave w = std::move(inflight.front());
            inflight.pop_front();
            inflightReqs -= static_cast<unsigned>(w.reqs.size());
            // The failure is *observed* at the chain's completion
            // time, which is never earlier than the fault that caused
            // it — advancing the task clock to it lets the control
            // plane (drainFailedRanks at clockSeconds) see the death
            // before the wave is relaunched onto the dead rank.
            now = std::max(now, queue.eventSeconds(w.migrated));
            if (policy == FaultPolicy::Fatal) {
                PIM_FATAL("prefill wave of ", w.reqs.size(),
                          " requests failed under fault injection "
                          "(FaultPolicy::Fatal)");
            }
            if (policy == FaultPolicy::Drop)
                lostReqs += static_cast<unsigned>(w.reqs.size());
            else
                waiting.insert(waiting.begin(), w.reqs.begin(),
                               w.reqs.end());
            continue;
        }
        if (queue.eventSeconds(inflight.front().migrated) > now)
            break;
        const double ready =
            queue.eventSeconds(inflight.front().migrated);
        for (const unsigned id : inflight.front().reqs)
            active.push_back({id, cfg.promptTokens, 0, ready});
        inflightReqs -=
            static_cast<unsigned>(inflight.front().reqs.size());
        inflight.pop_front();
    }

    if (active.empty()) {
        if (!inflight.empty()) {
            // Wait for the next wave's migration to land.
            const double ready =
                queue.eventSeconds(inflight.front().migrated);
            queue.hostIdleUntil(ready,
                                {.after = inflight.front().migrated,
                                 .label = "wait:prefill",
                                 .tenant = tenant});
            now = std::max(now, ready);
        } else if (nextArrival < cfg.numRequests) {
            queue.hostIdleUntil(arrivals[nextArrival],
                                {.label = "wait:arrival",
                                 .tenant = tenant});
            now = std::max(now, arrivals[nextArrival]);
        }
        return;
    }

    // One pipelined decode step: the host runs the xPU-side FC and
    // step bookkeeping, the decode ranks run bandwidth-bound
    // attention plus this step's KV-block allocations, and the
    // appended KV blocks ship over the bus without stalling the
    // ranks. Consecutive steps overlap across all three resources.
    uint64_t kv_bytes = 0;
    for (const auto &r : active)
        kv_bytes += perTokenDec * r.context;
    const double attn_sec =
        static_cast<double>(kv_bytes) / cfg.mramBandwidth;
    const double alloc_sec = allocSeconds(
        blocksPerToken * static_cast<double>(active.size()));
    const std::string step_tag = traced
        ? " s" + std::to_string(stepIdx) + " b"
            + std::to_string(active.size())
        : std::string();
    queue.hostBusy(cfg.stepOverheadSeconds + cfg.fcStepSeconds,
                   {.label = traced ? "fc" + step_tag : "",
                    .tenant = tenant});
    const core::Event attn = queue.launchTimed(
        decode_set, attn_sec + alloc_sec,
        {.after = shipPrev2,
         .label = traced ? "attn" + step_tag : "",
         .tenant = tenant});
    const uint64_t append_per_dpu =
        perTokenDec * static_cast<uint64_t>(active.size());
    const core::Event ship = queue.memcpyBufferedAsync(
        decode_set, append_per_dpu, core::CopyDirection::HostToPim,
        {.after = attn,
         .label = traced ? "kv append" + step_tag : "",
         .tenant = tenant});
    shippedBytes += append_per_dpu * decode_set.size();
    shipPrev2 = shipPrev1;
    shipPrev1 = ship;
    ++stepIdx;

    const double t_end = queue.eventSeconds(attn);
    if (faults && queue.eventFailed(attn)) {
        // The step produced no tokens: a decode rank died mid-step, a
        // shipped KV append was permanently corrupted (poisoning this
        // attention through its .after chain), or the launch timed
        // out. Nothing commits — under Recover the batch stays active
        // and the eventually-successful retry's TPOT spans the gap
        // (the SLO sees the stall); under Drop the batch's KV is
        // untrusted and its requests are shed. Either way the
        // double-buffer chain restarts from scratch so one failed
        // ship cannot poison every later step.
        if (policy == FaultPolicy::Fatal) {
            PIM_FATAL("decode step ", stepIdx - 1, " (batch ",
                      active.size(), ") failed under fault injection "
                      "(FaultPolicy::Fatal)");
        }
        lostStepsN += static_cast<unsigned>(active.size());
        if (policy == FaultPolicy::Drop) {
            lostReqs += static_cast<unsigned>(active.size());
            active.clear();
        }
        shipPrev1 = core::kNoEvent;
        shipPrev2 = core::kNoEvent;
        now = std::max(now, t_end);
        return;
    }
    res.peakBatchObserved = std::max<unsigned>(
        res.peakBatchObserved, static_cast<unsigned>(active.size()));
    for (auto &r : active) {
        ++r.context;
        ++r.generated;
        ++tokensOut;
        const double step_lat = t_end - r.lastTokenSec;
        tpot.add(step_lat);
        if (met != nullptr) {
            tpotReg->add(step_lat);
            met->slo().observe("serving.tpot", step_lat);
        }
        if (r.generated == 1) {
            const double first_lat = t_end - arrivals[r.id];
            ttft.add(first_lat);
            if (met != nullptr) {
                ttftReg->add(first_lat);
                met->slo().observe("serving.ttft", first_lat);
            }
        }
        r.lastTokenSec = t_end;
    }
    std::erase_if(active, [&](const ActiveRequest &r) {
        if (r.generated >= cfg.outputTokens) {
            ++completed;
            return true;
        }
        return false;
    });
    now = std::max(now, t_end);
}

void
DisaggServingTask::Impl::rebuildParts()
{
    PIM_ASSERT(!prefillRankIds.empty() && !decodeRankIds.empty(),
               "serving partition lost a whole side");
    parts = {sys.ranks(prefillRankIds), sys.ranks(decodeRankIds)};
    const unsigned prefill_dpus = parts.first.size();
    const unsigned decode_dpus = parts.second.size();
    res.prefillRanks =
        static_cast<unsigned>(parts.first.ranks().size());
    res.decodeRanks = static_cast<unsigned>(parts.second.ranks().size());
    perTokenDec = cfg.model.kvBytesPerTokenPerDpu(decode_dpus);
    perTokenPre = cfg.model.kvBytesPerTokenPerDpu(prefill_dpus);
    blocksPerToken =
        static_cast<double>(perTokenDec) / cfg.kvBlockBytes;
    const alloc::PimMallocConfig heap_cfg;
    promptBytesPre = perTokenPre * cfg.promptTokens;
    maxPrefillBatch = std::max<unsigned>(
        1,
        static_cast<unsigned>(heap_cfg.heapBytes * 95 / 100
                              / std::max<uint64_t>(promptBytesPre, 1)));
    res.maxBatchLimit = batchLimit(scheme, cfg, decode_dpus);
    PIM_ASSERT(res.maxBatchLimit >= 1,
               "decode partition too small after rank loss: "
               "zero-request batch limit");
}

void
DisaggServingTask::Impl::onRankFailed(unsigned rank, double failSec)
{
    const bool was_prefill =
        std::find(prefillRankIds.begin(), prefillRankIds.end(), rank)
        != prefillRankIds.end();
    const bool was_decode =
        std::find(decodeRankIds.begin(), decodeRankIds.end(), rank)
        != decodeRankIds.end();
    PIM_ASSERT(was_prefill || was_decode, "rank ", rank,
               " is not part of this serving partition");
    if (policy == FaultPolicy::Fatal) {
        PIM_FATAL("rank ", rank, " failed at t=", failSec,
                  "s (FaultPolicy::Fatal)");
    }
    ++failures;
    std::erase(prefillRankIds, rank);
    std::erase(decodeRankIds, rank);

    if (policy == FaultPolicy::Recover) {
        // Pause (waitingReplacement) until the control plane grants a
        // replacement; the affected waves/steps surface as failed
        // events and re-queue through the step() paths above.
        pendingFails.push_back({rank, failSec, was_prefill});
        return;
    }

    // Drop: no replacement is coming. The dead rank held a shard of
    // every active request's KV (decode) or of the in-flight prompt
    // KV (prefill), so those requests are shed, and the partition
    // shrinks onto the survivors. If a whole side died there is no
    // pipeline left — everything unfinished is lost.
    unrepairedFailSecs.push_back(failSec);
    if (was_decode) {
        lostReqs += static_cast<unsigned>(active.size());
        active.clear();
    }
    for (const auto &w : inflight)
        lostReqs += static_cast<unsigned>(w.reqs.size());
    inflight.clear();
    inflightReqs = 0;
    shipPrev1 = core::kNoEvent;
    shipPrev2 = core::kNoEvent;
    if (prefillRankIds.empty() || decodeRankIds.empty()) {
        lostReqs += static_cast<unsigned>(waiting.size());
        lostReqs += cfg.numRequests - nextArrival;
        waiting.clear();
        nextArrival = cfg.numRequests;
        return;
    }
    rebuildParts();
}

void
DisaggServingTask::Impl::onReplacementGranted(
    const core::DpuSet &replacement)
{
    PIM_ASSERT(!pendingFails.empty(),
               "replacement granted with no outstanding rank failure");
    const PendingFail fail = pendingFails.front();
    pendingFails.pop_front();
    ++recoveredCount;

    std::vector<unsigned> &side =
        fail.wasPrefill ? prefillRankIds : decodeRankIds;
    for (const unsigned r : replacement.ranks())
        side.push_back(r);
    rebuildParts();

    // Repair starts no earlier than the failure was observed: the
    // replacement's lanes are idle (a fresh rank back-fills to t=0
    // otherwise), so pin the tenant's host lane first.
    queue.hostIdleUntil(std::max(now, fail.failSec),
                        {.label = traced ? "recover:wait" : "",
                         .tenant = tenant});

    core::Event landed = core::kNoEvent;
    const unsigned tasklets = cfg.allocTasklets;
    if (fail.wasPrefill) {
        // A prefill rank holds only transient prompt KV (re-created by
        // the re-queued waves), so recovery is bringing the fresh
        // rank's allocator state up — the same deployment-time launch
        // the constructor issues.
        if (scheme.allocator) {
            landed = queue.launchProgram(
                replacement,
                [this, tasklets](sim::Dpu &dpu, unsigned global) {
                    PrefillSlot &st = slots[sys.slotOf(global)];
                    core::AllocatorOverrides ov;
                    ov.numTasklets = tasklets;
                    st.allocator =
                        core::makeAllocator(dpu, *scheme.allocator, ov);
                    st.kv = std::make_unique<KvCacheManager>(
                        *st.allocator, cfg.kvBlockBytes);
                    st.prevWaveRequests = 0;
                    dpu.run(1, [&](sim::Tasklet &t) {
                        st.allocator->init(t);
                    });
                },
                {.label = traced ? "recover:alloc init" : "",
                 .tenant = tenant});
        }
    } else {
        // A decode rank held one shard of every resident context: the
        // active batch's full contexts plus the prompts of waves whose
        // migration already landed (waves that failed instead
        // re-prefill from scratch, so their KV is not re-shipped
        // twice). Re-ship that shard onto the replacement through the
        // same double-buffered scatter path the pipeline uses, and
        // restart the ship chain from it so the next attention waits
        // for the restored KV.
        uint64_t ctx_tokens = 0;
        for (const auto &r : active)
            ctx_tokens += r.context;
        for (const auto &w : inflight) {
            if (!queue.eventFailed(w.migrated)) {
                ctx_tokens += static_cast<uint64_t>(w.reqs.size())
                    * cfg.promptTokens;
            }
        }
        const uint64_t bytes_per_dpu = perTokenDec * ctx_tokens;
        if (bytes_per_dpu > 0) {
            landed = queue.memcpyBufferedAsync(
                replacement, bytes_per_dpu,
                core::CopyDirection::HostToPim,
                {.label = traced ? "recover:kv reship" : "",
                 .tenant = tenant});
            recoveryBytes += bytes_per_dpu * replacement.size();
        }
        shipPrev1 = landed;
        shipPrev2 = core::kNoEvent;
    }

    const double repaired = std::max(
        landed != core::kNoEvent ? queue.eventSeconds(landed)
                                 : std::max(now, fail.failSec),
        fail.failSec);
    mttrSum += repaired - fail.failSec;
    downtime += repaired - fail.failSec;
}

DisaggServingTask::DisaggServingTask(const ServingScheme &scheme,
                                     const ServingEngineConfig &cfg,
                                     core::CommandQueue &queue,
                                     const core::DpuSet &partition,
                                     core::TenantId tenant)
    : impl_(std::make_unique<Impl>(scheme, cfg, queue, partition,
                                   tenant))
{
}

DisaggServingTask::~DisaggServingTask() = default;

bool
DisaggServingTask::done() const
{
    return impl_->completed + impl_->lostReqs
        >= impl_->cfg.numRequests;
}

double
DisaggServingTask::clockSeconds() const
{
    return impl_->now;
}

void
DisaggServingTask::step()
{
    PIM_ASSERT(!done(), "step() after the serving trace completed");
    PIM_ASSERT(impl_->pendingFails.empty(),
               "step() while waiting for a replacement rank");
    impl_->step();
}

void
DisaggServingTask::onRankFailed(unsigned rank, double failSec)
{
    impl_->onRankFailed(rank, failSec);
}

void
DisaggServingTask::onReplacementGranted(const core::DpuSet &replacement)
{
    impl_->onReplacementGranted(replacement);
}

bool
DisaggServingTask::waitingReplacement() const
{
    return !impl_->pendingFails.empty();
}

ServingResult
DisaggServingTask::result() const
{
    PIM_ASSERT(done(), "result() before the serving trace completed");
    ServingResult res = impl_->res;
    res.makespanSec = impl_->now;
    res.throughputTokensPerSec =
        static_cast<double>(impl_->tokensOut)
        / std::max(res.makespanSec, 1e-9);
    res.tpotP50Ms = impl_->tpot.p50() * 1e3;
    res.tpotP95Ms = impl_->tpot.p95() * 1e3;
    res.tpotP99Ms = impl_->tpot.p99() * 1e3;
    res.ttftP50Ms = impl_->ttft.p50() * 1e3;
    res.ttftP95Ms = impl_->ttft.p95() * 1e3;
    res.ttftP99Ms = impl_->ttft.p99() * 1e3;
    res.kvShippedBytes = impl_->shippedBytes;
    res.completedRequests = impl_->completed;
    res.lostRequests = impl_->lostReqs;
    res.lostSteps = impl_->lostStepsN;
    res.rankFailures = impl_->failures;
    res.recoveryBytes = impl_->recoveryBytes;
    res.mttrMeanSec = impl_->recoveredCount > 0
        ? impl_->mttrSum / impl_->recoveredCount
        : 0.0;
    double down = impl_->downtime;
    for (const double fail_sec : impl_->unrepairedFailSecs)
        down += std::max(0.0, impl_->now - fail_sec);
    for (const auto &f : impl_->pendingFails)
        down += std::max(0.0, impl_->now - f.failSec);
    res.availability = res.makespanSec > 0.0
        ? std::clamp(1.0 - down / res.makespanSec, 0.0, 1.0)
        : 1.0;
    return res;
}

ServingResult
ServingEngine::runDisaggregated()
{
    const ServingConfig &cfg = cfg_.base;

    // One representative DPU per rank: prefill launches must find a
    // materialized member in every prefill rank.
    core::PimSystemConfig scfg;
    scfg.numDpus = cfg.numDpus;
    scfg.samplePerRank = true;
    scfg.simThreads = cfg_.simThreads;
    core::PimSystem sys(scfg);
    PIM_ASSERT(sys.numRanks() >= 2,
               "disaggregated serving needs at least two ranks");
    core::CommandQueue queue(sys);
    if (cfg.recorder != nullptr)
        queue.attachRecorder(cfg.recorder);
    if (cfg.metrics != nullptr)
        queue.attachMetrics(cfg.metrics);

    // Fault injection (opt-in) rides the session. With rank deaths in
    // play it holds spare ranks back from the task's grant — for every
    // policy, so a Recover run and its Drop baseline serve on
    // identically sized partitions.
    core::Session session(queue, cfg_.faultSpec, cfg_.faultSeed);
    core::DpuSet part = sys.all();
    if (session.rankFaults())
        part = session.acquireRest("serving", cfg_.spareRanks, 2);
    DisaggServingTask task(scheme_, cfg_, queue, part);
    session.add("serving", task);
    const double makespan = session.run();

    // Standalone: the queue is exclusively ours, so the joined-queue
    // makespan, the queue's transfer counter, and the hidden-work sum
    // are all this run's own (a co-tenant run reads task.result()
    // as-is instead and gets tenant-local numbers).
    ServingResult res = task.result();
    res.makespanSec = makespan;
    res.throughputTokensPerSec =
        static_cast<double>(task.impl_->tokensOut)
        / std::max(res.makespanSec, 1e-9);
    res.kvShippedBytes = queue.transferredBytes();
    res.overlapSeconds = std::max(
        0.0,
        queue.launchWorkSeconds() + queue.copyWorkSeconds()
            + queue.hostWorkSeconds() - res.makespanSec);
    return res;
}

} // namespace pim::workloads::llm

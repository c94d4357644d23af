/**
 * @file
 * alloc-mix: the allocator and the tasklet event loop do nearly all the
 * work, while the command queue sees one command per launch. For each
 * of straw-man, PIM-malloc-SW and PIM-malloc-HW/SW, one DPU runs a
 * 16-tasklet launch and then a 1-tasklet launch of closed-loop
 * malloc/free scripts. Sizes are log-uniform over 16 B - 4 KB, so every
 * thread-cache class, the backend refill and the > 2 KB bypass all
 * appear, and a random live block is freed as the script goes.
 *
 * Every call is logged (a free at the moment it is issued, a malloc when
 * it returns) and the log is checked after the launch against a shadow
 * map: each block lies inside the heap and overlaps no live block, and
 * every free of a live block returns true.
 */

#include <cmath>
#include <map>
#include <memory>

#include "alloc/pim_malloc.hh"
#include "core/allocator_factory.hh"
#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "spans.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "workloads.hh"

namespace perfbench {

using namespace pim;

namespace {

constexpr unsigned kTasklets = 16;
/** Script length per tasklet of the 16-tasklet launch, and of the
 *  1-tasklet launch (before the closing frees). */
constexpr unsigned kOps16 = 1200;
constexpr unsigned kOps1 = 6000;
/** Live blocks a tasklet holds at most. */
constexpr unsigned kMaxLive = 48;
constexpr double kMinSize = 16.0;
constexpr double kMaxSize = 4096.0;

std::vector<AllocOp>
makeScript(util::Rng &rng, unsigned ops)
{
    std::vector<AllocOp> s;
    s.reserve(ops + kMaxLive);
    unsigned live = 0;
    const double lo = std::log(kMinSize);
    const double hi = std::log(kMaxSize + 1.0);
    for (unsigned i = 0; i < ops; ++i) {
        if (live == 0 || (live < kMaxLive && rng.bernoulli(0.55))) {
            const double x = std::exp(lo + (hi - lo) * rng.uniformReal());
            const auto size = static_cast<uint32_t>(
                std::min(std::max(x, kMinSize), kMaxSize));
            s.push_back({size, 0});
            ++live;
        } else {
            s.push_back({0, static_cast<uint32_t>(rng.uniformInt(live))});
            --live;
        }
    }
    // Close the script with an empty live set, so every launch returns
    // the heap it used.
    for (; live > 0; --live)
        s.push_back({0, static_cast<uint32_t>(rng.uniformInt(live))});
    return s;
}

/** One logged call: a malloc when size > 0, else a free. */
struct CallLog
{
    sim::MramAddr addr;
    uint32_t size;
    bool ok;
};

/** [lo, hi): the MRAM range the allocator's heap occupies. */
std::pair<uint64_t, uint64_t>
heapRange(const alloc::Allocator &a)
{
    constexpr uint64_t kHeapBytes = 32u << 20; // factory default
    const auto *pm = dynamic_cast<const alloc::PimMallocAllocator *>(&a);
    const uint64_t lo =
        pm != nullptr ? pm->backendMetadataBytes() : a.metadataBytes();
    return {lo, lo + kHeapBytes};
}

void
verifyLog(const std::vector<CallLog> &log, std::pair<uint64_t, uint64_t> heap,
          const std::string &what, IterResult &res)
{
    std::map<uint64_t, uint64_t> live; // start -> end
    for (const CallLog &c : log) {
        ++res.attempted;
        if (!c.ok) {
            ++res.failed;
            res.error(what + (c.size != 0 ? ": malloc returned null"
                                          : ": free returned false"));
            continue;
        }
        if (c.size == 0) {
            if (live.erase(c.addr) != 1)
                res.error(what + ": free of a block that is not live");
            continue;
        }
        const uint64_t lo = c.addr;
        const uint64_t hi = lo + c.size;
        if (lo < heap.first || hi > heap.second)
            res.error(what + ": block outside the heap");
        const auto next = live.lower_bound(lo);
        if ((next != live.end() && next->first < hi)
            || (next != live.begin() && std::prev(next)->second > lo))
            res.error(what + ": block overlaps a live block");
        live[lo] = hi;
    }
}

/** Span names carry the kind after ':' (see alloc.host_ns_per_call). */
struct KindNames
{
    core::AllocatorKind kind;
    const char *label;
    const char *malloc;
    const char *free;
};

constexpr KindNames kKinds[] = {
    {core::AllocatorKind::StrawMan, "strawman", "alloc.malloc:strawman",
     "alloc.free:strawman"},
    {core::AllocatorKind::PimMallocSw, "sw", "alloc.malloc:sw",
     "alloc.free:sw"},
    {core::AllocatorKind::PimMallocHwSw, "hwsw", "alloc.malloc:hwsw",
     "alloc.free:hwsw"},
};

} // namespace

AllocMixInputs
makeAllocMixInputs(uint64_t seed)
{
    util::Rng rng = util::Rng(seed).stream("alloc-mix");
    AllocMixInputs in;
    for (unsigned t = 0; t < kTasklets; ++t)
        in.scripts16.push_back(makeScript(rng, kOps16));
    in.script1 = makeScript(rng, kOps1);
    return in;
}

IterResult
runAllocMix(const AllocMixInputs &in, const IterConfig &cfg)
{
    IterResult res;
    Tracer *const tr = cfg.tracer;
    util::Percentile latency;
    sim::CycleBreakdown breakdown;
    double makespan = 0.0;
    uint64_t events = 0;
    uint64_t elided = 0;
    uint64_t runs = 0;
    double system_setup = 0.0;

    for (const KindNames &kn : kKinds) {
        // Set-up: a fresh one-DPU system, the allocator, and its init.
        const Clock::time_point t_setup = Clock::now();
        core::PimSystemConfig scfg = core::singleDpuConfig();
        scfg.simThreads = cfg.threads;
        std::unique_ptr<core::PimSystem> sys;
        {
            Span s(tr, "core.PimSystem", Layer::Core);
            sys = std::make_unique<core::PimSystem>(scfg);
        }
        system_setup += secondsSince(t_setup);
        core::CommandQueue queue(*sys);
        sim::Dpu &dpu = sys->dpu(0);
        core::AllocatorOverrides ov;
        ov.numTasklets = kTasklets;
        std::unique_ptr<alloc::Allocator> allocator =
            core::makeAllocator(dpu, kn.kind, ov);
        queue.launch(sys->all(), 1, [&](sim::Tasklet &t, unsigned) {
            Span s(tr, "alloc.init", Layer::Alloc);
            allocator->init(t);
        });
        {
            Span s(tr, "core.sync", Layer::Core);
            queue.sync();
        }
        allocator->stats().resetCounters();
        dpu.resetStats();
        const sim::SimMutex *mutex = allocator->contentionMutex();
        const uint64_t acq0 = mutex != nullptr ? mutex->acquisitions() : 0;
        const uint64_t cont0 =
            mutex != nullptr ? mutex->contendedAcquisitions() : 0;
        const uint64_t elided0 =
            mutex != nullptr ? mutex->elidedSpinEvents() : 0;
        res.setupSec += secondsSince(t_setup);

        const std::pair<uint64_t, uint64_t> heap = heapRange(*allocator);
        std::vector<CallLog> log;
        for (const unsigned tasklets : {kTasklets, 1u}) {
            log.clear();
            log.reserve(tasklets == 1
                            ? in.script1.size()
                            : in.scripts16.size() * in.scripts16[0].size());
            // Spans inside a tasklet body only with one tasklet: fibers
            // of a 16-tasklet launch interleave inside calls.
            Tracer *const call_tr = tasklets == 1 ? tr : nullptr;
            auto body = [&](sim::Tasklet &t) {
                const std::vector<AllocOp> &script =
                    tasklets == 1 ? in.script1 : in.scripts16[t.id()];
                std::vector<sim::MramAddr> live;
                live.reserve(kMaxLive);
                for (const AllocOp &op : script) {
                    if (op.size != 0) {
                        sim::MramAddr a;
                        {
                            Span s(call_tr, kn.malloc, Layer::Alloc);
                            a = allocator->malloc(t, op.size);
                        }
                        log.push_back({a, op.size, a != sim::kNullAddr});
                        live.push_back(a);
                        continue;
                    }
                    const sim::MramAddr a = live[op.victim];
                    live[op.victim] = live.back();
                    live.pop_back();
                    if (a == sim::kNullAddr)
                        continue; // its malloc already counted as failed
                    const size_t idx = log.size();
                    log.push_back({a, 0, false});
                    bool ok;
                    {
                        Span s(call_tr, kn.free, Layer::Alloc);
                        ok = allocator->free(t, a);
                    }
                    log[idx].ok = ok;
                }
            };

            // Only set-up and log checks (a few milliseconds) separate
            // the six measured launches, so one pair of edges brackets
            // them all.
            if (&kn == &kKinds[0] && tasklets == kTasklets)
                cfg.edge();
            const Clock::time_point t0 = Clock::now();
            {
                Span s(tr, "core.enqueue", Layer::Core);
                queue.launchProgram(sys->all(),
                                    [&](sim::Dpu &d, unsigned) {
                                        Span sr(tr, "sim.Dpu::run",
                                                Layer::Sim);
                                        d.run(tasklets, body);
                                    });
            }
            {
                Span s(tr, "core.sync", Layer::Core);
                queue.sync();
            }
            res.measuredSec += secondsSince(t0);
            res.ops += log.size();
            makespan += dpu.lastElapsedSeconds();
            events += dpu.lastSimEvents();
            breakdown.merge(dpu.lastBreakdown());
            ++runs;
            verifyLog(log, heap,
                      std::string(kn.label) + " "
                          + std::to_string(tasklets) + "-tasklet",
                      res);
        }

        addQueueLayer(res, queue, makespan);
        const alloc::AllocStats &st = allocator->stats();
        for (const double x : st.latency.samples())
            latency.add(x);
        const uint64_t acq =
            mutex != nullptr ? mutex->acquisitions() - acq0 : 0;
        const uint64_t cont =
            mutex != nullptr ? mutex->contendedAcquisitions() - cont0 : 0;
        if (mutex != nullptr)
            elided += mutex->elidedSpinEvents() - elided0;
        addAllocLayer(res, kn.kind, st, dpu.traffic().metadataBytes(),
                      dpu.buddyCache().stats().hitRate(),
                      acq > 0 ? static_cast<double>(cont)
                              / static_cast<double>(acq)
                              : 0.0);
    }

    cfg.edge();
    res.sim["sim_makespan_s"] = makespan;
    res.sim["sim_alloc_cycles_mean"] = latency.mean();
    res.sim["sim_alloc_cycles_p99"] = latency.p99();
    res.layer["sim.runs"] = static_cast<double>(runs);
    res.layer["sim.model_events"] = static_cast<double>(events + elided);
    res.layer["sim.elided_events"] = static_cast<double>(elided);
    res.layer["sim.host_ns_per_event"] =
        res.measuredSec * 1e9 / static_cast<double>(events + elided);
    res.layer["core.system_setup_s"] = system_setup;
    addBreakdownLayer(res, breakdown);
    return res;
}

} // namespace perfbench

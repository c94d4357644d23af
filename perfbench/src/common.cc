#include <algorithm>

#include "util/logging.hh"
#include "util/stats.hh"
#include "workloads.hh"

namespace perfbench {

using namespace pim;

void
IterResult::error(const std::string &what)
{
    constexpr size_t kKeep = 8;
    if (errors.size() < kKeep)
        errors.push_back(what);
    else if (errors.size() == kKeep)
        errors.push_back("... further violations omitted");
}

double
percentile(const std::vector<double> &xs, double p)
{
    util::Percentile pc;
    for (const double x : xs)
        pc.add(x);
    return pc.percentile(p);
}

bool
GraphInputs::operator==(const GraphInputs &o) const
{
    return gen.numNodes == o.gen.numNodes && gen.numEdges == o.gen.numEdges
        && gen.skew == o.gen.skew && gen.maxDegree == o.gen.maxDegree
        && gen.seed == o.gen.seed && splitSeed == o.splitSeed;
}

uint64_t
expectedUpdateEdges(const GraphInputs &in)
{
    // generateGraph yields exactly numEdges edges, and splitForUpdate
    // makes the first floor(edges * 1/3) of a shuffle the update stream.
    return static_cast<uint64_t>(static_cast<double>(in.gen.numEdges)
                                 * (1.0 / 3.0));
}

namespace {

const char *
kindSuffix(core::AllocatorKind kind)
{
    switch (kind) {
      case core::AllocatorKind::StrawMan: return "strawman";
      case core::AllocatorKind::PimMallocSw: return "sw";
      case core::AllocatorKind::PimMallocHwSw: return "hwsw";
      default: break;
    }
    PIM_FATAL("allocator kind outside the benchmark's catalogue");
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

} // namespace

void
addAllocLayer(IterResult &res, core::AllocatorKind kind,
              const alloc::AllocStats &st, uint64_t metadata_traffic_bytes,
              double buddy_hit_rate, double mutex_contended_frac)
{
    const std::string k = kindSuffix(kind);
    auto &l = res.layer;
    l["alloc.malloc_calls." + k] = static_cast<double>(st.mallocCalls);
    l["alloc.free_calls." + k] = static_cast<double>(st.freeCalls);
    l["alloc.failures." + k] = static_cast<double>(st.failures);
    const char *levels[] = {"frontend", "backend", "bypass"};
    for (size_t i = 0; i < 3; ++i) {
        const auto level = static_cast<alloc::ServiceLevel>(i);
        l[std::string("alloc.") + levels[i] + "_frac." + k] =
            st.servicedFraction(level);
        l[std::string("alloc.sim_cycles_") + levels[i] + "." + k] =
            ratio(static_cast<double>(st.cyclesByLevel[i]),
                  static_cast<double>(st.serviced[i]));
    }
    l["alloc.metadata_bytes_per_malloc." + k] =
        ratio(static_cast<double>(metadata_traffic_bytes),
              static_cast<double>(st.mallocCalls));
    l["alloc.buddy_cache_hit_rate." + k] = buddy_hit_rate;
    l["alloc.mutex_contended_frac." + k] = mutex_contended_frac;
    l["alloc.peak_frag." + k] = st.peakFragmentation;
}

void
addBreakdownLayer(IterResult &res, const sim::CycleBreakdown &bd)
{
    res.layer["sim.run_frac"] = bd.fraction(sim::CycleKind::Run);
    res.layer["sim.busywait_frac"] = bd.fraction(sim::CycleKind::BusyWait);
    res.layer["sim.idle_mem_frac"] = bd.fraction(sim::CycleKind::IdleMemory);
}

void
addQueueLayer(IterResult &res, const core::CommandQueue &queue,
              double makespan_sec)
{
    const core::CommandQueue::DrainStats &ds = queue.drainStats();
    auto &l = res.layer;
    l["core.drain_phase1_s"] += ds.phase1Sec;
    l["core.drain_phase2_s"] += ds.phase2Sec;
    l["core.drains"] += static_cast<double>(ds.drains);
    l["core.commands"] += static_cast<double>(ds.commands);
    l["core.bus_bytes"] += static_cast<double>(queue.transferredBytes());
    l["core.launch_work_s"] += queue.launchWorkSeconds();
    l["core.bus_busy_frac"] = ratio(queue.copyWorkSeconds(), makespan_sec);
}

} // namespace perfbench

#include "sim/dpu.hh"

#include <cmath>
#include <string>

#include "sim/scheduler.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace pim::sim {

Dpu::Dpu(const DpuConfig &cfg)
    : cfg_(cfg),
      mram_(cfg.mramBytes, "MRAM"),
      buddyCache_(cfg.buddyCache)
{
    memoDmaCycles(0);
}

void
Dpu::memoDmaCycles(uint32_t bytes)
{
    dmaMemoBytes_ = bytes;
    dmaMemoCycles_ = cfg_.dmaSetupCycles
        + static_cast<uint64_t>(std::ceil(cfg_.dmaCyclesPerByte * bytes));
}

uint64_t
Dpu::run(unsigned num_tasklets, const std::function<void(Tasklet &)> &body)
{
    PIM_ASSERT(num_tasklets > 0, "DPU launch needs at least one tasklet");
    TaskletScheduler sched(*this);
    for (unsigned i = 0; i < num_tasklets; ++i)
        sched.spawn(body);
    sched.runToCompletion();

    lastElapsed_ = sched.elapsedCycles();
    lastBreakdown_ = CycleBreakdown{};
    lastSimEvents_ = 0;
    for (size_t i = 0; i < sched.numTasklets(); ++i) {
        const auto &bd = sched.tasklet(i).breakdown();
        lastBreakdown_.merge(bd);
        lastSimEvents_ += sched.tasklet(i).simEvents();
        // Pad tasklets that finished before the makespan with Idle(Etc)
        // so occupancy fractions are meaningful across the whole launch.
        lastBreakdown_.add(CycleKind::IdleEtc,
                           lastElapsed_ - sched.tasklet(i).clock());
    }

    if (traceRec_ != nullptr) {
        const std::string prefix =
            "dpu" + std::to_string(traceGlobal_) + "/t";
        for (size_t i = 0; i < sched.numTasklets(); ++i) {
            const uint64_t cycles = sched.tasklet(i).clock();
            trace::Span s;
            s.lane = traceRec_->customLane(prefix + std::to_string(i));
            s.name = "tasklet";
            s.t0 = traceOrigin_;
            s.t1 = traceOrigin_ + cfg_.cyclesToSeconds(cycles);
            s.cycles = cycles;
            traceRec_->record(std::move(s));
        }
        traceOrigin_ += cfg_.cyclesToSeconds(lastElapsed_);
    }
    return lastElapsed_;
}

uint32_t
Dpu::wramReserve(uint32_t bytes)
{
    PIM_ASSERT(bytes <= cfg_.wramBytes - wramUsed_,
               "WRAM budget exceeded: used=", wramUsed_, " request=", bytes,
               " capacity=", cfg_.wramBytes);
    const uint32_t offset = wramUsed_;
    wramUsed_ += bytes;
    return offset;
}

void
Dpu::resetStats()
{
    traffic_ = TrafficStats{};
    buddyCache_.resetStats();
    lastElapsed_ = 0;
    lastBreakdown_ = CycleBreakdown{};
}

} // namespace pim::sim

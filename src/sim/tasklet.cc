#include "sim/tasklet.hh"

#include <algorithm>

#include "sim/dpu.hh"
#include "sim/scheduler.hh"

namespace pim::sim {

const char *
cycleKindName(CycleKind kind)
{
    switch (kind) {
      case CycleKind::Run: return "Run";
      case CycleKind::BusyWait: return "Busy-waiting";
      case CycleKind::IdleMemory: return "Idle(Memory)";
      case CycleKind::IdleEtc: return "Idle(Etc)";
    }
    return "?";
}

void
Tasklet::rearm(Dpu &dpu, TaskletScheduler &sched, unsigned id)
{
    dpu_ = &dpu;
    sched_ = &sched;
    activeTasklets_ = &sched.active_;
    issueInterval_ = dpu.config().pipelineIssueInterval;
    id_ = id;
    clockKey_ = id; // clock 0, id in the low bits
    horizonKey_ = UINT64_MAX;
    simEvents_ = 0;
    parked_ = false;
    breakdown_ = CycleBreakdown{};
}

void
Tasklet::yieldNow()
{
    sched_->switchOut(*this);
}

void
Tasklet::dmaRead(MramAddr addr, uint32_t bytes, TrafficClass tc)
{
    (void)addr;
    const uint64_t cycles = dpu_->dmaCycles(bytes);
    auto &traffic = dpu_->traffic();
    ++traffic.dmaTransfers;
    if (tc == TrafficClass::Metadata)
        traffic.metadataReadBytes += bytes;
    else
        traffic.dataReadBytes += bytes;
    charge(cycles, CycleKind::IdleMemory);
}

void
Tasklet::dmaWrite(MramAddr addr, uint32_t bytes, TrafficClass tc)
{
    (void)addr;
    const uint64_t cycles = dpu_->dmaCycles(bytes);
    auto &traffic = dpu_->traffic();
    ++traffic.dmaTransfers;
    if (tc == TrafficClass::Metadata)
        traffic.metadataWriteBytes += bytes;
    else
        traffic.dataWriteBytes += bytes;
    charge(cycles, CycleKind::IdleMemory);
}

template <typename T>
T
Tasklet::mramRead(MramAddr addr, TrafficClass tc)
{
    dmaRead(addr, std::max<uint32_t>(8, sizeof(T)), tc);
    return dpu_->mram().read<T>(addr);
}

template <typename T>
void
Tasklet::mramWrite(MramAddr addr, const T &value, TrafficClass tc)
{
    // Charge the DMA before committing the store (mirroring mramRead):
    // the write must not become visible to tasklets scheduled during
    // the transfer's virtual time window.
    dmaWrite(addr, std::max<uint32_t>(8, sizeof(T)), tc);
    dpu_->mram().write<T>(addr, value);
}

// Explicit instantiations for the types workloads use.
template uint32_t Tasklet::mramRead<uint32_t>(MramAddr, TrafficClass);
template uint64_t Tasklet::mramRead<uint64_t>(MramAddr, TrafficClass);
template int32_t Tasklet::mramRead<int32_t>(MramAddr, TrafficClass);
template void Tasklet::mramWrite<uint32_t>(MramAddr, const uint32_t &,
                                           TrafficClass);
template void Tasklet::mramWrite<uint64_t>(MramAddr, const uint64_t &,
                                           TrafficClass);
template void Tasklet::mramWrite<int32_t>(MramAddr, const int32_t &,
                                          TrafficClass);

} // namespace pim::sim

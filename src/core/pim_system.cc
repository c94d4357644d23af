#include "core/pim_system.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.hh"

namespace pim::core {

PimSystemConfig
singleDpuConfig(const sim::DpuConfig &dpu_cfg)
{
    PimSystemConfig cfg;
    cfg.numDpus = 1;
    cfg.dpuCfg = dpu_cfg;
    cfg.simThreads = 1;
    return cfg;
}

unsigned
sampleGlobalIndex(unsigned slot, unsigned sample, unsigned num_dpus)
{
    if (sample == 0 || sample >= num_dpus)
        return slot;
    return static_cast<unsigned>(static_cast<uint64_t>(slot) * num_dpus
                                 / sample);
}

namespace {

/** First sample slot whose global index is >= @p global, or
 *  sampleCount() if none; globalIndex is strictly increasing in the
 *  slot, so this is a binary search. */
unsigned
firstSlotAtOrAbove(const PimSystem &sys, unsigned global)
{
    unsigned lo = 0, hi = sys.sampleCount();
    while (lo < hi) {
        const unsigned mid = lo + (hi - lo) / 2;
        if (sys.globalIndex(mid) < global)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

} // namespace

DpuSet::DpuSet(const PimSystem *sys, std::vector<unsigned> rank_ids)
    : sys_(sys)
{
    auto part = std::make_shared<SlotPartition>();
    const unsigned per_rank = sys_->config().dpusPerRank;
    part->rankSlotBegin.reserve(rank_ids.size() + 1);
    for (const unsigned r : rank_ids) {
        const unsigned first = r * per_rank;
        const unsigned n = sys_->rankSize(r);
        size_ += n;
        part->rankSlotBegin.push_back(
            static_cast<unsigned>(part->slots.size()));
        const unsigned end = firstSlotAtOrAbove(*sys_, first + n);
        for (unsigned s = firstSlotAtOrAbove(*sys_, first); s < end; ++s)
            part->slots.push_back(s);
    }
    part->rankSlotBegin.push_back(
        static_cast<unsigned>(part->slots.size()));
    part->ranks = std::move(rank_ids);
    part_ = std::move(part);
}

// indexOf and memberAt count every member rank before the last as a
// full dpusPerRank: only the system's last rank can be short, and it
// sorts last in any rank list.

unsigned
DpuSet::indexOf(unsigned global) const
{
    PIM_ASSERT(contains(global), "DPU ", global,
               " is not a member of this set");
    const unsigned per_rank = sys_->config().dpusPerRank;
    const auto pos = std::lower_bound(ranks().begin(), ranks().end(),
                                      global / per_rank)
        - ranks().begin();
    return static_cast<unsigned>(pos) * per_rank + global % per_rank;
}

unsigned
DpuSet::memberAt(unsigned idx) const
{
    PIM_ASSERT(idx < size_, "member index ", idx,
               " out of range for a set of ", size_, " DPUs");
    const unsigned per_rank = sys_->config().dpusPerRank;
    return ranks()[idx / per_rank] * per_rank + idx % per_rank;
}

std::pair<DpuSet, DpuSet>
DpuSet::partitionRanks(double fraction) const
{
    const unsigned n = static_cast<unsigned>(ranks().size());
    PIM_ASSERT(n >= 2, "cannot partition a set of ", n, " rank(s)");
    const auto want = static_cast<long>(
        std::lround(fraction * static_cast<double>(n)));
    const unsigned k = static_cast<unsigned>(
        std::clamp<long>(want, 1, n - 1));
    std::vector<unsigned> head(ranks().begin(), ranks().begin() + k);
    std::vector<unsigned> tail(ranks().begin() + k, ranks().end());
    return {DpuSet(sys_, std::move(head)), DpuSet(sys_, std::move(tail))};
}

bool
DpuSet::contains(unsigned global) const
{
    return global < sys_->numDpus()
        && std::binary_search(ranks().begin(), ranks().end(),
                              sys_->rankOf(global));
}

PimSystem::PimSystem(const PimSystemConfig &cfg)
    : cfg_(cfg), host_(cfg.hostCfg), xfer_(cfg.xferCfg),
      engine_(cfg.simThreads)
{
    PIM_ASSERT(cfg.numDpus > 0, "need at least one DPU");
    PIM_ASSERT(cfg.dpusPerRank > 0, "need at least one DPU per rank");
    numRanks_ = (cfg.numDpus + cfg.dpusPerRank - 1) / cfg.dpusPerRank;
    const unsigned sample = cfg.samplePerRank ? numRanks_
        : cfg.sampleDpus == 0
            ? cfg.numDpus : std::min(cfg.sampleDpus, cfg.numDpus);
    dpus_.reserve(sample);
    for (unsigned i = 0; i < sample; ++i)
        dpus_.push_back(std::make_unique<sim::Dpu>(cfg.dpuCfg));
    std::vector<unsigned> every_rank(numRanks_);
    std::iota(every_rank.begin(), every_rank.end(), 0u);
    all_ = DpuSet(this, std::move(every_rank));
}

unsigned
PimSystem::rankSize(unsigned r) const
{
    PIM_ASSERT(r < numRanks_, "rank out of range");
    const unsigned begin = r * cfg_.dpusPerRank;
    return std::min(cfg_.dpusPerRank, cfg_.numDpus - begin);
}

unsigned
PimSystem::rankOf(unsigned global) const
{
    PIM_ASSERT(global < cfg_.numDpus, "DPU index out of range");
    return global / cfg_.dpusPerRank;
}

sim::Dpu &
PimSystem::dpu(unsigned slot)
{
    return *dpus_.at(slot);
}

unsigned
PimSystem::globalIndex(unsigned slot) const
{
    PIM_ASSERT(slot < dpus_.size(), "sample slot out of range");
    if (cfg_.samplePerRank)
        return slot * cfg_.dpusPerRank; // first DPU of rank `slot`
    return sampleGlobalIndex(slot,
                             static_cast<unsigned>(dpus_.size()),
                             cfg_.numDpus);
}

unsigned
PimSystem::slotOf(unsigned global) const
{
    const unsigned slot = firstSlotAtOrAbove(*this, global);
    PIM_ASSERT(slot < sampleCount() && globalIndex(slot) == global,
               "global DPU index ", global, " is not materialized");
    return slot;
}

DpuSet
PimSystem::rank(unsigned r) const
{
    PIM_ASSERT(r < numRanks_, "rank out of range");
    return DpuSet(this, {r});
}

DpuSet
PimSystem::ranks(std::vector<unsigned> rank_ids) const
{
    std::sort(rank_ids.begin(), rank_ids.end());
    rank_ids.erase(std::unique(rank_ids.begin(), rank_ids.end()),
                   rank_ids.end());
    PIM_ASSERT(!rank_ids.empty(), "empty rank set");
    PIM_ASSERT(rank_ids.back() < numRanks_, "rank id out of range");
    return DpuSet(this, std::move(rank_ids));
}

} // namespace pim::core

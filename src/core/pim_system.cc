#include "core/pim_system.hh"

#include <algorithm>
#include <cmath>

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

DpuSet::DpuSet(const PimSystem *sys, Kind kind, unsigned rank,
               std::vector<unsigned> rank_ids)
    : sys_(sys), kind_(kind), rank_(rank)
{
    switch (kind_) {
      case Kind::All:
        size_ = sys_->numDpus();
        for (unsigned r = 0; r < sys_->numRanks(); ++r)
            ranks_.push_back(r);
        for (unsigned s = 0; s < sys_->sampleCount(); ++s)
            slots_.push_back(s);
        break;
      case Kind::Rank:
        size_ = sys_->rankSize(rank_);
        ranks_.push_back(rank_);
        for (unsigned s = 0; s < sys_->sampleCount(); ++s) {
            if (sys_->rankOf(sys_->globalIndex(s)) == rank_)
                slots_.push_back(s);
        }
        break;
      case Kind::Ranks:
        // DPU membership stays implicit so a many-rank set costs
        // O(ranks), not O(DPUs).
        ranks_ = std::move(rank_ids);
        for (const unsigned r : ranks_)
            size_ += sys_->rankSize(r);
        for (unsigned s = 0; s < sys_->sampleCount(); ++s) {
            if (std::binary_search(
                    ranks_.begin(), ranks_.end(),
                    sys_->rankOf(sys_->globalIndex(s))))
                slots_.push_back(s);
        }
        break;
    }
}

namespace {

/** Group @p slots into contiguous per-rank runs over @p ranks. Both
 *  lists are ascending and every slot's rank is a member of ranks, so
 *  one merge-style walk builds the run offsets. */
std::shared_ptr<const SlotPartition>
buildSlotPartition(const PimSystem &sys, std::vector<unsigned> ranks,
                   std::vector<unsigned> slots)
{
    auto part = std::make_shared<SlotPartition>();
    part->ranks = std::move(ranks);
    part->slots = std::move(slots);
    part->rankSlotBegin.reserve(part->ranks.size() + 1);
    size_t j = 0;
    for (const unsigned r : part->ranks) {
        part->rankSlotBegin.push_back(static_cast<unsigned>(j));
        while (j < part->slots.size()
               && sys.rankOf(sys.globalIndex(part->slots[j])) == r)
            ++j;
    }
    part->rankSlotBegin.push_back(static_cast<unsigned>(j));
    PIM_ASSERT(j == part->slots.size(),
               "slot outside the set's rank list (DpuSet invariant "
               "violated)");
    return part;
}

} // namespace

const std::shared_ptr<const SlotPartition> &
DpuSet::partition() const
{
    if (part_ == nullptr) {
        part_ = kind_ == Kind::All
            ? sys_->allPartition()
            : buildSlotPartition(*sys_, ranks_, slots_);
    }
    return part_;
}

const std::shared_ptr<const SlotPartition> &
PimSystem::allPartition() const
{
    if (allPart_ == nullptr) {
        std::vector<unsigned> ranks(numRanks_);
        for (unsigned r = 0; r < numRanks_; ++r)
            ranks[r] = r;
        std::vector<unsigned> slots(sampleCount());
        for (unsigned s = 0; s < sampleCount(); ++s)
            slots[s] = s;
        allPart_ =
            buildSlotPartition(*this, std::move(ranks), std::move(slots));
    }
    return allPart_;
}

unsigned
DpuSet::indexOf(unsigned global) const
{
    PIM_ASSERT(contains(global), "DPU ", global,
               " is not a member of this set");
    switch (kind_) {
      case Kind::All:
        return global;
      case Kind::Rank:
        return global - rank_ * sys_->config().dpusPerRank;
      case Kind::Ranks: {
        // Members are implicit: sum the sizes of earlier member ranks,
        // then add the offset inside the owning rank.
        const unsigned r = sys_->rankOf(global);
        unsigned before = 0;
        for (const unsigned m : ranks_) {
            if (m == r)
                break;
            before += sys_->rankSize(m);
        }
        return before + (global - r * sys_->config().dpusPerRank);
      }
    }
    return 0;
}

unsigned
DpuSet::memberAt(unsigned idx) const
{
    PIM_ASSERT(idx < size_, "member index ", idx,
               " out of range for a set of ", size_, " DPUs");
    switch (kind_) {
      case Kind::All:
        return idx;
      case Kind::Rank:
        return rank_ * sys_->config().dpusPerRank + idx;
      case Kind::Ranks: {
        unsigned rest = idx;
        for (const unsigned r : ranks_) {
            const unsigned n = sys_->rankSize(r);
            if (rest < n)
                return r * sys_->config().dpusPerRank + rest;
            rest -= n;
        }
        break;
      }
    }
    return 0; // unreachable: idx < size_
}

std::pair<DpuSet, DpuSet>
DpuSet::partitionRanks(double fraction) const
{
    const unsigned n = static_cast<unsigned>(ranks_.size());
    PIM_ASSERT(n >= 2, "cannot partition a set of ", n, " rank(s)");
    const auto want = static_cast<long>(
        std::lround(fraction * static_cast<double>(n)));
    const unsigned k = static_cast<unsigned>(
        std::clamp<long>(want, 1, n - 1));
    std::vector<unsigned> head(ranks_.begin(), ranks_.begin() + k);
    std::vector<unsigned> tail(ranks_.begin() + k, ranks_.end());
    return {DpuSet(sys_, Kind::Ranks, 0, std::move(head)),
            DpuSet(sys_, Kind::Ranks, 0, std::move(tail))};
}

bool
DpuSet::contains(unsigned global) const
{
    switch (kind_) {
      case Kind::All:
        return global < sys_->numDpus();
      case Kind::Rank:
        return global < sys_->numDpus() && sys_->rankOf(global) == rank_;
      case Kind::Ranks:
        return global < sys_->numDpus()
            && std::binary_search(ranks_.begin(), ranks_.end(),
                                  sys_->rankOf(global));
    }
    return false;
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
    // globalIndex is strictly increasing in the slot, so binary search.
    const unsigned sample = static_cast<unsigned>(dpus_.size());
    unsigned lo = 0, hi = sample;
    while (lo < hi) {
        const unsigned mid = lo + (hi - lo) / 2;
        if (globalIndex(mid) < global)
            lo = mid + 1;
        else
            hi = mid;
    }
    PIM_ASSERT(lo < sample && globalIndex(lo) == global,
               "global DPU index ", global, " is not materialized");
    return lo;
}

DpuSet
PimSystem::all() const
{
    return DpuSet(this, DpuSet::Kind::All, 0, {});
}

DpuSet
PimSystem::rank(unsigned r) const
{
    PIM_ASSERT(r < numRanks_, "rank out of range");
    return DpuSet(this, DpuSet::Kind::Rank, r, {});
}

DpuSet
PimSystem::ranks(std::vector<unsigned> rank_ids) const
{
    std::sort(rank_ids.begin(), rank_ids.end());
    rank_ids.erase(std::unique(rank_ids.begin(), rank_ids.end()),
                   rank_ids.end());
    PIM_ASSERT(!rank_ids.empty(), "empty rank set");
    PIM_ASSERT(rank_ids.back() < numRanks_, "rank id out of range");
    return DpuSet(this, DpuSet::Kind::Ranks, 0, std::move(rank_ids));
}

} // namespace pim::core

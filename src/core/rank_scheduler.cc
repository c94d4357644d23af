#include "core/rank_scheduler.hh"

#include "telemetry/registry.hh"
#include "util/logging.hh"

namespace pim::core {

RankScheduler::RankScheduler(const PimSystem &sys)
    : sys_(sys), owner_(sys.numRanks()), quarantined_(sys.numRanks(), false)
{
}

void
RankScheduler::attachMetrics(telemetry::Registry *met)
{
    met_ = met;
}

std::optional<DpuSet>
RankScheduler::tryAcquireRanks(unsigned n, const std::string &tenant)
{
    PIM_ASSERT(!tenant.empty(), "rank acquisition needs a tenant name");
    PIM_ASSERT(n >= 1, "cannot acquire zero ranks");
    std::vector<unsigned> grant;
    grant.reserve(n);
    for (unsigned r = 0; r < owner_.size() && grant.size() < n; ++r) {
        if (owner_[r].empty() && !quarantined_[r])
            grant.push_back(r);
    }
    if (grant.size() < n)
        return std::nullopt;
    for (const unsigned r : grant)
        owner_[r] = tenant;
    if (met_ != nullptr) {
        met_->counter("ranks.grants").add();
        met_->counter("ranks.granted_ranks").add(grant.size());
        met_->gauge("ranks.free").set(freeRankCount());
    }
    return sys_.ranks(std::move(grant));
}

DpuSet
RankScheduler::acquireRanks(unsigned n, const std::string &tenant)
{
    std::optional<DpuSet> set = tryAcquireRanks(n, tenant);
    if (!set) {
        PIM_FATAL("tenant '", tenant, "' asked for ", n, " ranks but ",
                  freeRankCount(), " of ", owner_.size(), " are free");
    }
    return *std::move(set);
}

unsigned
RankScheduler::releaseAll(const std::string &tenant)
{
    PIM_ASSERT(!tenant.empty(), "releaseAll needs a tenant name");
    unsigned released = 0;
    for (unsigned r = 0; r < owner_.size(); ++r) {
        if (owner_[r] == tenant) {
            owner_[r].clear();
            ++released;
        }
    }
    if (released > 0 && met_ != nullptr) {
        met_->counter("ranks.releases").add();
        met_->gauge("ranks.free").set(freeRankCount());
    }
    return released;
}

std::string
RankScheduler::quarantine(unsigned rank)
{
    PIM_ASSERT(rank < owner_.size(), "rank out of range");
    PIM_ASSERT(!quarantined_[rank], "rank ", rank,
               " is already quarantined");
    std::string prev = owner_[rank];
    owner_[rank].clear();
    quarantined_[rank] = true;
    if (met_ != nullptr) {
        met_->counter("ranks.quarantines").add();
        met_->gauge("ranks.free").set(freeRankCount());
    }
    return prev;
}

bool
RankScheduler::quarantined(unsigned rank) const
{
    PIM_ASSERT(rank < owner_.size(), "rank out of range");
    return quarantined_[rank];
}

unsigned
RankScheduler::freeRankCount() const
{
    unsigned n = 0;
    for (unsigned r = 0; r < owner_.size(); ++r) {
        if (owner_[r].empty() && !quarantined_[r])
            ++n;
    }
    return n;
}

const std::string &
RankScheduler::ownerOf(unsigned r) const
{
    PIM_ASSERT(r < owner_.size(), "rank out of range");
    return owner_[r];
}

} // namespace pim::core

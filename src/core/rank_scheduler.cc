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
    if (met_ != nullptr)
        met_->gauge("ranks.free").set(freeRankCount());
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
    if (released > 0) {
        if (met_ != nullptr) {
            met_->counter("ranks.releases").add();
            met_->gauge("ranks.free").set(freeRankCount());
        }
        serveWaiting();
    }
    return released;
}

void
RankScheduler::onRevoke(const std::string &tenant,
                        std::function<void(unsigned)> cb)
{
    PIM_ASSERT(!tenant.empty(), "onRevoke needs a tenant name");
    revokeCbs_[tenant] = std::move(cb);
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
    if (!prev.empty()) {
        auto it = revokeCbs_.find(prev);
        if (it != revokeCbs_.end() && it->second)
            it->second(rank);
    }
    return prev;
}

bool
RankScheduler::quarantined(unsigned rank) const
{
    PIM_ASSERT(rank < owner_.size(), "rank out of range");
    return quarantined_[rank];
}

void
RankScheduler::requestRanks(unsigned n, const std::string &tenant,
                            std::function<void(DpuSet)> cb)
{
    PIM_ASSERT(!tenant.empty(), "rank request needs a tenant name");
    PIM_ASSERT(n >= 1, "cannot request zero ranks");
    PIM_ASSERT(cb != nullptr, "rank request needs a grant callback");
    waiting_.push_back(Request{n, tenant, std::move(cb)});
    serveWaiting();
    // Still queued after a serve pass = the request parked (strict
    // FIFO: a non-empty queue means everything behind the head waits).
    if (met_ != nullptr && !waiting_.empty())
        met_->counter("ranks.waits").add();
}

void
RankScheduler::serveWaiting()
{
    // Strict FIFO: the head request blocks everything behind it until
    // it can be granted, which keeps grant order deterministic. Grant
    // callbacks may release or request ranks — re-entry collapses into
    // the outermost loop via the serving_ guard.
    if (serving_)
        return;
    serving_ = true;
    while (!waiting_.empty()) {
        Request &head = waiting_.front();
        std::optional<DpuSet> grant = tryAcquireRanks(head.n,
                                                      head.tenant);
        if (!grant)
            break;
        std::function<void(DpuSet)> cb = std::move(head.cb);
        waiting_.pop_front();
        cb(*std::move(grant));
    }
    serving_ = false;
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

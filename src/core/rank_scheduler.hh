/**
 * @file
 * Rank-ownership arbitration for multi-tenant PIM scheduling: a
 * RankScheduler tracks which tenant owns each rank of one PimSystem and
 * grants/releases whole ranks, so two drivers sharing a CommandQueue
 * (an LLM serving engine, a graph update driver) get rank-level
 * isolation — each tenant launches only on ranks it owns, and the bus
 * stays the only shared resource (the interference structure of a real
 * shared PIM serving host, cf. meta_mapper's pim_rankset).
 *
 * Grants are deterministic: acquireRanks hands out the lowest-numbered
 * free ranks, so a co-tenant experiment is reproducible regardless of
 * tenant arrival interleaving. The scheduler is bookkeeping only — it
 * does not enforce that commands stay inside their tenant's grant (the
 * queue cannot know which tenant a DpuSet "belongs" to); drivers are
 * expected to build their DpuSets from the granted set.
 *
 * Fault recovery: quarantine(r) takes a failed rank out of its
 * tenant's grant and out of circulation (a quarantined rank is never
 * granted again) and names the previous owner. The scheduler only
 * keeps the table; core::Session tells the owner and grants the
 * replacements.
 */

#ifndef PIM_CORE_RANK_SCHEDULER_HH
#define PIM_CORE_RANK_SCHEDULER_HH

#include <optional>
#include <string>
#include <vector>

#include "core/pim_system.hh"

namespace pim::telemetry {
class Registry;
}

namespace pim::core {

/** Rank-granular ownership arbiter of one PimSystem. */
class RankScheduler
{
  public:
    explicit RankScheduler(const PimSystem &sys);

    /**
     * Start counting arbitration decisions into @p met (nullptr
     * detaches): grants / granted ranks / quarantines / releases as
     * "ranks.*" counters, plus a "ranks.free" gauge that every grant,
     * release and quarantine sets to the free pool (so a scheduler
     * that never decides adds no entries). One pointer test when
     * detached. core::Session attaches its scheduler to its queue's
     * registry.
     */
    void attachMetrics(telemetry::Registry *met);

    /**
     * Try to acquire @p n ranks for @p tenant: grants the n
     * lowest-numbered free ranks as one DpuSet, or nullopt if fewer
     * than n ranks are free (no partial grants). @p tenant must be
     * non-empty — it names the owner in ownerOf() and error messages.
     */
    std::optional<DpuSet> tryAcquireRanks(unsigned n,
                                          const std::string &tenant);

    /** Like tryAcquireRanks, but contention is fatal: use when the
     *  experiment's partitioning must succeed by construction. */
    DpuSet acquireRanks(unsigned n, const std::string &tenant);

    /**
     * Release every rank @p tenant currently owns (idempotent: zero
     * ranks is fine). The task-teardown primitive that cannot leak or
     * double-release a grant. @return ranks released.
     */
    unsigned releaseAll(const std::string &tenant);

    /**
     * Quarantine @p rank (it failed): pulled from its owner's grant or
     * from the free pool, and never granted again. Fatal if already
     * quarantined.
     * @return the previous owner ("" if the rank was free).
     */
    std::string quarantine(unsigned rank);

    /** True if @p rank has been quarantined. */
    bool quarantined(unsigned rank) const;

    /** Ranks not currently granted to any tenant. */
    unsigned freeRankCount() const;

    /** Total ranks under arbitration (== system's numRanks). */
    unsigned numRanks() const
    {
        return static_cast<unsigned>(owner_.size());
    }

    /** Owning tenant of rank @p r ("" = free). */
    const std::string &ownerOf(unsigned r) const;

  private:
    const PimSystem &sys_;
    /** Owner name per rank; empty = free. */
    std::vector<std::string> owner_;
    /** Quarantined ranks: never free, never granted. */
    std::vector<bool> quarantined_;
    /** Metrics sink; nullptr = metrics off. */
    telemetry::Registry *met_ = nullptr;
};

} // namespace pim::core

#endif // PIM_CORE_RANK_SCHEDULER_HH

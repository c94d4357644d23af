/**
 * @file
 * Hardware buddy cache model (Section IV-B of the paper): a small
 * fully-associative CAM, one per DPU, that caches 4-byte words of the
 * buddy allocator's packed metadata array. Managed with true LRU and a
 * write-back policy; hits cost one PIM core cycle.
 *
 * The model is a tag array: it tracks which words are resident, how
 * recently each was used and whether it is dirty, but not their values,
 * which the simulator keeps in MRAM. The four ISA extensions map to it
 * as follows:
 *   init_bc                                    -> init()
 *   lookup_bc, then the read_bc, write_bc or
 *   fill that follows it                       -> one access()
 * alloc::HwCacheStore charges each instruction's cycles and traffic.
 * The same CAM at 64-byte line granularity is Section VII's
 * general-purpose data cache (alloc::DataCacheStore).
 */

#ifndef PIM_SIM_BUDDY_CACHE_HH
#define PIM_SIM_BUDDY_CACHE_HH

#include <cstdint>
#include <vector>

#include "sim/config.hh"
#include "sim/types.hh"

namespace pim::sim {

/** Statistics exported by the buddy cache. */
struct BuddyCacheStats
{
    uint64_t lookups = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t dirtyEvictions = 0;

    /** Hit rate in [0,1]; 0 when no lookups happened. */
    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits)
            / static_cast<double>(lookups) : 0.0;
    }
};

/** The per-DPU CAM-based metadata cache. */
class BuddyCache
{
  public:
    explicit BuddyCache(const BuddyCacheConfig &cfg = BuddyCacheConfig{});

    /** Invalidate all entries (the init_bc instruction). */
    void init();

    /** Outcome of one access(). */
    struct Access
    {
        bool hit = false;
        /** Address of the dirty victim to write back, or kNullAddr. */
        MramAddr writeBack = kNullAddr;
    };

    /**
     * Look up @p addr and make it the most recently used entry, marking
     * it dirty if @p write. On a miss, @p addr fills the first invalid
     * entry, or else evicts the least recently used one. Counts toward
     * every statistic.
     */
    Access access(MramAddr addr, bool write);

    /** Statistics accessors. */
    const BuddyCacheStats &stats() const { return stats_; }
    void resetStats() { stats_ = BuddyCacheStats{}; }

    /** Configuration. */
    const BuddyCacheConfig &config() const { return cfg_; }

  private:
    struct Entry
    {
        MramAddr addr = 0;
        bool dirty = false;
        uint64_t lastUse = 0;
    };

    BuddyCacheConfig cfg_;
    /**
     * Only init() invalidates, and it invalidates every entry, so the
     * valid entries are always the first used_ ones.
     */
    std::vector<Entry> entries_;
    size_t used_ = 0;
    BuddyCacheStats stats_;
    uint64_t useClock_ = 0;
};

} // namespace pim::sim

#endif // PIM_SIM_BUDDY_CACHE_HH

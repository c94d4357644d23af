/**
 * @file
 * PIM-malloc (Section IV): the paper's fast and scalable dynamic memory
 * allocator for PIM, in both variants.
 *
 *  - PIM-malloc-SW:     per-tasklet thread caches in front of a 14-level
 *                       buddy backend whose metadata is reached through
 *                       the coarse software-managed WRAM buffer.
 *  - PIM-malloc-HW/SW:  identical, except the backend metadata is
 *                       reached through the per-core hardware buddy
 *                       cache (fine-grained LRU, write-back).
 *
 * Both variants exist in eager (default; initAllocator pre-populates one
 * span per size class per tasklet) and lazy (PIM-malloc-lazy, Table III)
 * flavours.
 *
 * Tasklet k allocates from thread cache k, so an allocator serves
 * tasklets 0..numTasklets-1 only; malloc or free from any other tasklet
 * is fatal. The host keeps one 8-byte record per live block (requested
 * size, size class or bypass, owning cache) in a flat AddrTable keyed
 * by the block's address; the span holding a frontend block is worked
 * out from that address. The records and the thread caches' span slabs
 * grow to a workload's peak and are then reused, so a steady-state
 * malloc or free makes no host heap allocation.
 */

#ifndef PIM_ALLOC_PIM_MALLOC_HH
#define PIM_ALLOC_PIM_MALLOC_HH

#include <memory>
#include <vector>

#include "alloc/addr_table.hh"
#include "alloc/allocator.hh"
#include "alloc/buddy_tree.hh"
#include "alloc/straw_man.hh"
#include "alloc/thread_cache.hh"
#include "sim/dpu.hh"
#include "sim/mutex.hh"

namespace pim::alloc {

/** Configuration of a PIM-malloc instance (one per DPU). */
struct PimMallocConfig
{
    /** Heap capacity (paper: 32 MB). */
    uint32_t heapBytes = 32u << 20;
    /** Backend buddy minimum block == thread-cache span (paper: 4 KB). */
    uint32_t spanBytes = 4096;
    /** Frontend size classes (paper: 16 B .. 2 KB, 8 classes). */
    std::vector<uint32_t> sizeClasses{16, 32, 64, 128, 256, 512, 1024, 2048};
    /** Backend metadata access path: SwBuffer => PIM-malloc-SW,
     *  HwCache => PIM-malloc-HW/SW. */
    MetadataMode metadata = MetadataMode::SwBuffer;
    /** WRAM window of the software-managed buffer (SwBuffer mode). */
    uint32_t swBufferBytes = 2048;
    /** Eager pre-population of thread caches (false => -lazy). */
    bool prePopulate = true;
    /** Tasklets that will use this allocator (thread caches created). */
    unsigned numTasklets = 16;
};

/** The hierarchical PIM-malloc allocator. */
class PimMallocAllocator : public Allocator
{
  public:
    PimMallocAllocator(sim::Dpu &dpu, const PimMallocConfig &cfg);

    void init(sim::Tasklet &t) override;
    sim::MramAddr malloc(sim::Tasklet &t, uint32_t size) override;
    bool free(sim::Tasklet &t, sim::MramAddr addr) override;
    const AllocStats &stats() const override { return stats_; }
    AllocStats &stats() override { return stats_; }
    uint64_t metadataBytes() const override;
    std::string name() const override;

    /** Backend buddy tree (tests, characterization). */
    BuddyTree &backend() { return *tree_; }

    /** Thread cache of tasklet @p id. */
    ThreadCache &cache(unsigned id) { return caches_.at(id); }

    /** Backend mutex (contention statistics). */
    const sim::SimMutex *contentionMutex() const override
    {
        return &mutex_;
    }

    /** Configuration in effect. */
    const PimMallocConfig &config() const { return cfg_; }

    /** MRAM metadata footprint of the backend tree alone. */
    uint64_t backendMetadataBytes() const { return store_->bytes(); }

    /** WRAM footprint of live thread-cache span records. */
    uint64_t threadCacheMetadataBytes() const;

  private:
    /** Bookkeeping for one live user block. */
    struct LiveBlock
    {
        uint32_t requested;  ///< user-visible size
        bool bypass;         ///< true if serviced by the backend
        uint8_t cls;         ///< size class (frontend blocks)
        uint16_t taskletId;  ///< owning thread cache
    };
    static_assert(sizeof(LiveBlock) == 8);

    /** Lock, allocate from the buddy, unlock. */
    sim::MramAddr backendAlloc(sim::Tasklet &t, uint32_t size);

    /** Lock, free to the buddy, unlock. */
    uint32_t backendFree(sim::Tasklet &t, sim::MramAddr addr);

    sim::Dpu &dpu_;
    PimMallocConfig cfg_;
    std::unique_ptr<MetadataStore> store_;
    std::unique_ptr<BuddyTree> tree_;
    ThreadCacheConfig tcCfg_;
    std::vector<ThreadCache> caches_;
    sim::SimMutex mutex_;
    AllocStats stats_;
    AddrTable<LiveBlock> live_;
    bool initialized_ = false;
};

} // namespace pim::alloc

#endif // PIM_ALLOC_PIM_MALLOC_HH

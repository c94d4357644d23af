/**
 * @file
 * The straw-man buddy_alloc_PIM_DRAM design (Section III-B): UPMEM's
 * scratchpad buddy allocator extended to manage a PIM core's 32 MB MRAM
 * heap with a single flat buddy tree (20 splits, 21 levels, 32 B minimum
 * blocks -> 512 KB of metadata) accessed through the coarse-grained
 * software-managed WRAM metadata buffer, all under one shared mutex.
 * This is the "PIM-Metadata/PIM-Executed" design point the paper builds
 * PIM-malloc on top of, and the baseline PIM-malloc is compared against.
 */

#ifndef PIM_ALLOC_STRAW_MAN_HH
#define PIM_ALLOC_STRAW_MAN_HH

#include <memory>

#include "alloc/addr_table.hh"
#include "alloc/allocator.hh"
#include "alloc/buddy_tree.hh"
#include "alloc/metadata_store.hh"
#include "sim/dpu.hh"
#include "sim/mutex.hh"

namespace pim::alloc {

/** How a buddy allocator reaches its metadata. */
enum class MetadataMode : uint8_t {
    Direct,   ///< no access cost (host-executed / oracle)
    SwBuffer, ///< coarse software-managed WRAM buffer
    HwCache,  ///< hardware buddy cache (PIM-malloc-HW/SW)
};

/** Configuration of the straw-man allocator. */
struct StrawManConfig
{
    /** Heap capacity (paper: 32 MB). */
    uint32_t heapBytes = 32u << 20;
    /** Minimum (de)allocation size (paper: 32 B). */
    uint32_t minBlock = 32;
    /** Metadata access path. */
    MetadataMode metadata = MetadataMode::SwBuffer;
    /** WRAM window of the software-managed buffer. */
    uint32_t swBufferBytes = 2048;
};

/** The straw-man PIM buddy allocator. */
class StrawManAllocator : public Allocator
{
  public:
    StrawManAllocator(sim::Dpu &dpu, const StrawManConfig &cfg);

    void init(sim::Tasklet &t) override;
    sim::MramAddr malloc(sim::Tasklet &t, uint32_t size) override;
    bool free(sim::Tasklet &t, sim::MramAddr addr) override;
    const AllocStats &stats() const override { return stats_; }
    AllocStats &stats() override { return stats_; }
    uint64_t metadataBytes() const override { return store_->bytes(); }
    std::string name() const override;

    /** The underlying buddy tree (for tests and characterization). */
    BuddyTree &tree() { return *tree_; }

    /** The allocator mutex (for contention statistics). */
    const sim::SimMutex *contentionMutex() const override
    {
        return &mutex_;
    }

    /** The configuration in effect. */
    const StrawManConfig &config() const { return cfg_; }

  private:
    sim::Dpu &dpu_;
    StrawManConfig cfg_;
    std::unique_ptr<MetadataStore> store_;
    std::unique_ptr<BuddyTree> tree_;
    sim::SimMutex mutex_;
    AllocStats stats_;
    /** Host-side bookkeeping: user-requested size per live block. */
    AddrTable<uint32_t> liveRequests_;
};

/** Build the metadata store selected by @p mode at MRAM offset 0 (shared
 *  with PimMalloc); the heap follows it. */
std::unique_ptr<MetadataStore>
makeMetadataStore(sim::Dpu &dpu, MetadataMode mode, uint32_t num_nodes,
                  uint32_t sw_buffer_bytes);

} // namespace pim::alloc

#endif // PIM_ALLOC_STRAW_MAN_HH

/**
 * @file
 * The buddy allocation algorithm (Knowlton, CACM 1965) over a packed
 * 2-bit-per-node metadata tree, as used by UPMEM's buddy_alloc(), the
 * straw-man buddy_alloc_PIM_DRAM, and PIM-malloc's backend. The same
 * algorithm runs with direct, software-buffered, or hardware-cached
 * metadata access: each alloc() and free() reads its MetadataStore's
 * kind once and runs a walk specialised on that concrete store, so no
 * node visit makes a virtual call.
 */

#ifndef PIM_ALLOC_BUDDY_TREE_HH
#define PIM_ALLOC_BUDDY_TREE_HH

#include <cstdint>

#include "alloc/metadata_store.hh"
#include "sim/tasklet.hh"
#include "sim/types.hh"

namespace pim::alloc {

/** Buddy-tree traversal statistics. */
struct BuddyTreeStats
{
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t failures = 0;
    uint64_t nodesVisited = 0;

    /** Mean tree nodes touched per successful allocation. */
    double
    visitsPerAlloc() const
    {
        return allocs ? static_cast<double>(nodesVisited)
            / static_cast<double>(allocs) : 0.0;
    }
};

/**
 * Power-of-two buddy allocator over a contiguous MRAM heap.
 *
 * Level 0 is the root (the whole heap); each level halves the block
 * size; the deepest level allocates @p min_block bytes. A heap of H
 * bytes with minimum block m therefore has log2(H/m)+1 levels — the
 * paper's "20-level tree" for H=32 MB, m=32 B and "13-level tree" for
 * m=4 KB.
 */
class BuddyTree
{
  public:
    /**
     * @param store      metadata access path (not owned).
     * @param heap_base  MRAM byte offset of the heap region.
     * @param heap_bytes heap capacity; must be a power of two.
     * @param min_block  smallest allocatable block; power of two.
     */
    BuddyTree(MetadataStore &store, sim::MramAddr heap_base,
              uint32_t heap_bytes, uint32_t min_block);

    /**
     * Allocate at least @p size bytes (rounded up to a power of two,
     * clamped to min_block). Returns sim::kNullAddr when no block of the
     * required size is free.
     */
    sim::MramAddr alloc(sim::Tasklet &t, uint32_t size);

    /**
     * Free a block previously returned by alloc(). Merges with free
     * buddies as far up the tree as possible.
     * @return the size of the freed block, or 0 on an invalid/double
     *         free.
     */
    uint32_t free(sim::Tasklet &t, sim::MramAddr addr);

    /** Number of tree levels (root inclusive). */
    uint32_t levels() const { return levels_; }

    /** Number of nodes in the tree. */
    uint32_t numNodes() const { return (1u << levels_) - 1; }

    /** Size in bytes of blocks at @p level. */
    uint32_t
    blockSize(uint32_t level) const
    {
        return heapBytes_ >> level;
    }

    /** Round a request up to its allocation size (power of two). */
    uint32_t roundSize(uint32_t size) const;

    /** Heap bytes currently allocated (after rounding). */
    uint64_t allocatedBytes() const { return allocatedBytes_; }

    /** Heap base address in MRAM. */
    sim::MramAddr heapBase() const { return heapBase_; }

    /** Number of nodes the metadata array must cover. */
    static uint32_t
    nodesFor(uint32_t heap_bytes, uint32_t min_block)
    {
        uint32_t levels = 1;
        while ((heap_bytes >> (levels - 1)) > min_block)
            ++levels;
        return (1u << levels) - 1;
    }

    /**
     * Reset the tree to the all-free state: zeroes the metadata array
     * (one bulk DMA) and clears accounting and statistics.
     */
    void reset(sim::Tasklet &t);

    /** Traversal statistics. */
    const BuddyTreeStats &stats() const { return stats_; }

  private:
    /** Level whose block size fits @p rounded size exactly. */
    uint32_t levelFor(uint32_t rounded) const;

    /** Heap byte offset of @p node at @p level. */
    uint32_t
    offsetOf(uint32_t node, uint32_t level) const
    {
        const uint32_t first = (1u << level) - 1;
        return (node - first) * blockSize(level);
    }

    /** Recursive first-fit descent. */
    template <typename Store>
    sim::MramAddr tryAlloc(Store &store, sim::Tasklet &t, uint32_t node,
                           uint32_t level, uint32_t target);

    /**
     * Free the block at heap @p offset: descend to its node, merge with
     * free buddies, downgrade Full ancestors. Returns the freed size, or
     * 0 if no block is allocated exactly at @p offset.
     */
    template <typename Store>
    uint32_t freeAt(Store &store, sim::Tasklet &t, uint32_t offset);

    MetadataStore &store_;
    sim::MramAddr heapBase_;
    uint32_t heapBytes_;
    uint32_t minBlock_;
    uint32_t levels_;
    uint64_t allocatedBytes_ = 0;
    BuddyTreeStats stats_;
};

} // namespace pim::alloc

#endif // PIM_ALLOC_BUDDY_TREE_HH

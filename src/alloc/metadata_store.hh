/**
 * @file
 * Metadata access paths for the buddy allocator. The packed 2-bit
 * per-node state array lives in MRAM; the three concrete stores model
 * the three ways the paper's designs reach it:
 *
 *  - DirectStore:   host-resident / idealized access with no DPU cost
 *                   (used by Host-Executed design points and as a test
 *                   oracle).
 *  - SwBufferStore: the straw-man's and PIM-malloc-SW's software-managed
 *                   WRAM buffer with coarse-grained flush-and-reload on
 *                   miss (Fig 13(a)).
 *  - HwCacheStore:  PIM-malloc-HW/SW's per-core hardware buddy cache
 *                   with fine-grained LRU and write-back (Fig 13(b)).
 *
 * A fourth, DataCacheStore, is Section VII's general-purpose data cache:
 * the buddy cache's CAM model (sim::BuddyCache) at 64-byte line
 * granularity instead of 4-byte words.
 *
 * All stores operate on the same MRAM array, so switching stores never
 * changes allocation results — only cost and traffic. Tests rely on this
 * equivalence property. Because the array is always current, the cached
 * stores keep tags only, and a dirty window, line or word costs its
 * write-back traffic when it is evicted; there is no flush.
 */

#ifndef PIM_ALLOC_METADATA_STORE_HH
#define PIM_ALLOC_METADATA_STORE_HH

#include <cstdint>

#include "sim/buddy_cache.hh"
#include "sim/dpu.hh"
#include "sim/tasklet.hh"
#include "sim/types.hh"

namespace pim::alloc {

/** Buddy-tree node state, 2 bits in the packed metadata array. */
enum class NodeState : uint8_t {
    Free = 0,      ///< whole block available
    Split = 1,     ///< divided; some descendant is allocated
    Allocated = 2, ///< handed out as one block exactly at this node
    Full = 3,      ///< divided and every descendant is allocated; the
                   ///< alloc search prunes such subtrees so traversal
                   ///< cost scales with tree depth, not live blocks
};

/** Abstract access path to the packed node-state array. */
class MetadataStore
{
  public:
    /**
     * @param dpu        owning DPU (storage + traffic accounting).
     * @param mram_base  MRAM byte offset of the packed state array.
     * @param num_nodes  number of tree nodes covered.
     */
    MetadataStore(sim::Dpu &dpu, sim::MramAddr mram_base, uint32_t num_nodes);
    virtual ~MetadataStore() = default;

    /** Read one node's state, charging this store's access cost. */
    virtual NodeState get(sim::Tasklet &t, uint32_t node) = 0;

    /** Write one node's state, charging this store's access cost. */
    virtual void set(sim::Tasklet &t, uint32_t node, NodeState s) = 0;

    /** Zero the whole array (allocator init). Charges bulk DMA. */
    virtual void reset(sim::Tasklet &t);

    /** Metadata footprint in MRAM bytes (4-byte word granularity). */
    uint32_t bytes() const { return wordCount_ * kWordBytes; }

    /** Number of nodes covered. */
    uint32_t numNodes() const { return numNodes_; }

  protected:
    /** Nodes per packed 4-byte word (16 nodes x 2 bits). */
    static constexpr uint32_t kWordBytes = 4;
    static constexpr uint32_t kNodesPerWord = kWordBytes * 8 / 2;

    /** MRAM byte address of the word holding @p node. */
    sim::MramAddr
    wordAddr(uint32_t node) const
    {
        return base_ + (node / kNodesPerWord) * kWordBytes;
    }

    /** Bit shift of @p node within its word. */
    uint32_t
    bitShift(uint32_t node) const
    {
        return (node % kNodesPerWord) * 2;
    }

    /** Read a node's state straight from the MRAM array (no cost). */
    NodeState rawGet(uint32_t node) const;

    /** Write a node's state straight into the MRAM array (no cost). */
    void rawSet(uint32_t node, NodeState s);

    sim::Dpu &dpu_;
    sim::MramAddr base_;
    uint32_t numNodes_;
    uint32_t wordCount_;
};

/** Zero-cost direct access (host-side execution / test oracle). */
class DirectStore : public MetadataStore
{
  public:
    using MetadataStore::MetadataStore;

    NodeState get(sim::Tasklet &t, uint32_t node) override;
    void set(sim::Tasklet &t, uint32_t node, NodeState s) override;
};

/**
 * Coarse-grained software-managed WRAM buffer (Fig 13(a)). Caches one
 * aligned window of the metadata array; a miss flushes the whole window
 * (if dirty) and reloads the window containing the requested word.
 */
class SwBufferStore : public MetadataStore
{
  public:
    /**
     * @param buffer_bytes WRAM window size (default 2 KB, the paper's
     *        measured per-request transfer granularity).
     */
    SwBufferStore(sim::Dpu &dpu, sim::MramAddr mram_base, uint32_t num_nodes,
                  uint32_t buffer_bytes = 2048);

    NodeState get(sim::Tasklet &t, uint32_t node) override;
    void set(sim::Tasklet &t, uint32_t node, NodeState s) override;
    void reset(sim::Tasklet &t) override;

    /** Buffer hit statistics (paper quotes ~73% for 4 KB allocs). */
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    /** Make the window containing @p node resident; charge costs. */
    void ensureResident(sim::Tasklet &t, uint32_t node);

    uint32_t bufferBytes_;
    uint32_t windowStart_ = 0; ///< byte offset into the array
    bool valid_ = false;
    bool dirty_ = false;
    uint64_t hits_ = 0;
    uint64_t misses_ = 0;
};

/**
 * General-purpose data-cache access path (Section VII's discussion of
 * cache-enabled future PIM). Models a conventional cache in front of
 * MRAM that operates on coarse 64-byte lines: hits are as fast as the
 * buddy cache's, but every miss moves a whole line, and the small
 * per-core capacity thrashes on the buddy tree's non-adjacent access
 * pattern. Exists to reproduce the paper's argument that a specialized
 * fine-grained metadata cache remains necessary even when PIM cores
 * gain a general-purpose cache. Its lines are tracked by a private
 * sim::BuddyCache keyed by line address, so it is the buddy cache's CAM
 * at a different line size.
 */
class DataCacheStore : public MetadataStore
{
  public:
    /**
     * @param line_bytes cache line size (conventional: 64 B).
     * @param lines      number of lines (fully associative, LRU).
     */
    DataCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                   uint32_t num_nodes, uint32_t line_bytes = 64,
                   uint32_t lines = 16);

    NodeState get(sim::Tasklet &t, uint32_t node) override;
    void set(sim::Tasklet &t, uint32_t node, NodeState s) override;
    void reset(sim::Tasklet &t) override;

    /** Hit statistics. */
    uint64_t hits() const { return lines_.stats().hits; }
    uint64_t misses() const { return lines_.stats().misses; }

  private:
    /** Make the line holding @p node resident; charge costs. */
    void access(sim::Tasklet &t, uint32_t node, bool write);

    uint32_t lineBytes_;
    sim::BuddyCache lines_;
};

/**
 * Hardware buddy-cache access path (Fig 13(b)). Uses the DPU's CAM-based
 * BuddyCache at 4-byte word granularity; misses fetch exactly one word
 * from MRAM, dirty LRU victims are written back. Charges the cycles of
 * each buddy-cache instruction: lookup_bc, then read_bc or write_bc, with
 * a write_bc fill between them on a miss.
 */
class HwCacheStore : public MetadataStore
{
  public:
    HwCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base, uint32_t num_nodes);

    NodeState get(sim::Tasklet &t, uint32_t node) override;
    void set(sim::Tasklet &t, uint32_t node, NodeState s) override;
    void reset(sim::Tasklet &t) override;

  private:
    /** lookup_bc, plus the fill on a miss; charges their costs. */
    void access(sim::Tasklet &t, uint32_t node, bool write);
};

} // namespace pim::alloc

#endif // PIM_ALLOC_METADATA_STORE_HH

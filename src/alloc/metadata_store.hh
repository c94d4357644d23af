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
 *
 * Every store is final and tags itself with its Kind. get/set are not
 * virtual: BuddyTree switches on the tag once per alloc or free and runs
 * a walk specialised on the concrete store, so each node's get/set, the
 * window test and the MRAM read inline into the walk; only the miss
 * paths stay out of line.
 */

#ifndef PIM_ALLOC_METADATA_STORE_HH
#define PIM_ALLOC_METADATA_STORE_HH

#include <cstdint>

#include "alloc/cost_model.hh"
#include "sim/buddy_cache.hh"
#include "sim/dpu.hh"
#include "sim/tasklet.hh"
#include "sim/types.hh"
#include "util/logging.hh"

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

/**
 * What the access paths to the packed node-state array share. Each
 * concrete store adds get(t, node), which reads one node's state, and
 * set(t, node, s), which writes it, each charging that store's access
 * cost.
 */
class MetadataStore
{
  public:
    /** The concrete store behind a base reference. */
    enum class Kind : uint8_t { Direct, SwBuffer, DataCache, HwCache };

    virtual ~MetadataStore() = default;

    /** Which concrete store this is (set by its constructor). */
    Kind kind() const { return kind_; }

    /** Zero the whole array (allocator init). Charges bulk DMA. */
    virtual void reset(sim::Tasklet &t);

    /** Metadata footprint in MRAM bytes (4-byte word granularity). */
    uint32_t bytes() const { return wordCount_ * kWordBytes; }

    /** Number of nodes covered. */
    uint32_t numNodes() const { return numNodes_; }

  protected:
    /**
     * @param dpu        owning DPU (storage + traffic accounting).
     * @param mram_base  MRAM byte offset of the packed state array.
     * @param num_nodes  number of tree nodes covered.
     * @param kind       the concrete store being built.
     */
    MetadataStore(sim::Dpu &dpu, sim::MramAddr mram_base, uint32_t num_nodes,
                  Kind kind);

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
    NodeState
    rawGet(uint32_t node) const
    {
        PIM_ASSERT(node < numNodes_, "node index out of range: ", node);
        const uint32_t word = dpu_.mram().read<uint32_t>(wordAddr(node));
        return static_cast<NodeState>((word >> bitShift(node)) & 0x3u);
    }

    /** Write a node's state straight into the MRAM array (no cost). */
    void
    rawSet(uint32_t node, NodeState s)
    {
        PIM_ASSERT(node < numNodes_, "node index out of range: ", node);
        const sim::MramAddr addr = wordAddr(node);
        uint32_t word = dpu_.mram().read<uint32_t>(addr);
        word &= ~(0x3u << bitShift(node));
        word |= static_cast<uint32_t>(s) << bitShift(node);
        dpu_.mram().write<uint32_t>(addr, word);
    }

    sim::Dpu &dpu_;
    sim::MramAddr base_;
    uint32_t numNodes_;
    uint32_t wordCount_;

  private:
    Kind kind_;
};

/** Zero-cost direct access (host-side execution / test oracle). */
class DirectStore final : public MetadataStore
{
  public:
    DirectStore(sim::Dpu &dpu, sim::MramAddr mram_base, uint32_t num_nodes)
        : MetadataStore(dpu, mram_base, num_nodes, Kind::Direct)
    {
    }

    NodeState
    get(sim::Tasklet &, uint32_t node)
    {
        return rawGet(node);
    }

    void
    set(sim::Tasklet &, uint32_t node, NodeState s)
    {
        rawSet(node, s);
    }
};

/**
 * Coarse-grained software-managed WRAM buffer (Fig 13(a)). Caches one
 * aligned window of the metadata array; a miss flushes the whole window
 * (if dirty) and reloads the window containing the requested word.
 */
class SwBufferStore final : public MetadataStore
{
  public:
    /**
     * @param buffer_bytes WRAM window size (default 2 KB, the paper's
     *        measured per-request transfer granularity).
     */
    SwBufferStore(sim::Dpu &dpu, sim::MramAddr mram_base, uint32_t num_nodes,
                  uint32_t buffer_bytes = 2048);

    NodeState
    get(sim::Tasklet &t, uint32_t node)
    {
        ensureResident(t, node);
        return rawGet(node);
    }

    void
    set(sim::Tasklet &t, uint32_t node, NodeState s)
    {
        ensureResident(t, node);
        rawSet(node, s);
        dirty_ = true;
    }

    void reset(sim::Tasklet &t) override;

    /** Buffer hit statistics (paper quotes ~73% for 4 KB allocs). */
    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    /**
     * Make the window containing @p node resident; charge costs.
     * windowStart_ is always a multiple of the window size, so the hit
     * test needs no division.
     */
    void
    ensureResident(sim::Tasklet &t, uint32_t node)
    {
        const uint32_t byte_off = (node / kNodesPerWord) * kWordBytes;
        if (valid_ && byte_off - windowStart_ < bufferBytes_) {
            ++hits_;
            t.execute(cost::kSwBufferHitInstrs);
            return;
        }
        reload(t, byte_off);
    }

    /** The miss path: flush the window if dirty, load @p byte_off's. */
    void reload(sim::Tasklet &t, uint32_t byte_off);

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
class DataCacheStore final : public MetadataStore
{
  public:
    /**
     * @param line_bytes cache line size (conventional: 64 B).
     * @param lines      number of lines (fully associative, LRU).
     */
    DataCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                   uint32_t num_nodes, uint32_t line_bytes = 64,
                   uint32_t lines = 16);

    NodeState
    get(sim::Tasklet &t, uint32_t node)
    {
        access(t, node, false);
        return rawGet(node);
    }

    void
    set(sim::Tasklet &t, uint32_t node, NodeState s)
    {
        access(t, node, true);
        rawSet(node, s);
    }

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
class HwCacheStore final : public MetadataStore
{
  public:
    HwCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base, uint32_t num_nodes);

    NodeState
    get(sim::Tasklet &t, uint32_t node)
    {
        access(t, node, false);
        // read_bc
        t.stall(dpu_.config().buddyCache.accessCycles, sim::CycleKind::Run);
        return rawGet(node);
    }

    void
    set(sim::Tasklet &t, uint32_t node, NodeState s)
    {
        access(t, node, true);
        rawSet(node, s);
        // write_bc (access() marked the entry dirty). MRAM is updated
        // above so reads through any path stay coherent; the word's
        // write-back traffic is charged when the dirty entry is evicted.
        t.stall(dpu_.config().buddyCache.accessCycles, sim::CycleKind::Run);
    }

    void reset(sim::Tasklet &t) override;

  private:
    /**
     * lookup_bc, plus the fill on a miss; charges their costs. The CAM
     * is updated before the charges, which may switch this tasklet out.
     * That is safe: every tree access holds the allocator's mutex, and
     * init runs on one tasklet, so no other tasklet reaches the cache
     * in between.
     */
    void
    access(sim::Tasklet &t, uint32_t node, bool write)
    {
        const sim::MramAddr wa = wordAddr(node);
        const auto a = dpu_.buddyCache().access(wa, write);
        t.stall(dpu_.config().buddyCache.accessCycles,
                sim::CycleKind::Run); // lookup_bc
        if (!a.hit)
            fill(t, wa, a.writeBack);
    }

    /**
     * The miss path: fetch word @p wa, fill it via write_bc and write
     * back the dirty victim @p write_back (kNullAddr if none).
     */
    void fill(sim::Tasklet &t, sim::MramAddr wa, sim::MramAddr write_back);
};

/**
 * Call @p fn with @p store cast to its concrete class, so a walk written
 * as a generic lambda is compiled once per store with its get/set
 * inlined. A new store needs a Kind and a case here.
 */
template <typename Fn>
auto
visitStore(MetadataStore &store, Fn &&fn)
{
    switch (store.kind()) {
      case MetadataStore::Kind::Direct:
        return fn(static_cast<DirectStore &>(store));
      case MetadataStore::Kind::SwBuffer:
        return fn(static_cast<SwBufferStore &>(store));
      case MetadataStore::Kind::DataCache:
        return fn(static_cast<DataCacheStore &>(store));
      case MetadataStore::Kind::HwCache:
        return fn(static_cast<HwCacheStore &>(store));
    }
    PIM_PANIC("unknown metadata store kind");
}

} // namespace pim::alloc

#endif // PIM_ALLOC_METADATA_STORE_HH

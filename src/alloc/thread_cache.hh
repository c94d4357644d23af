/**
 * @file
 * PIM-malloc's frontend: the per-tasklet thread cache (Section IV-A).
 *
 * Each tasklet owns eight linked lists, one per power-of-two size class
 * from 16 B to 2 KB. Each list holds 4 KB spans obtained from the buddy
 * backend, subdivided into fixed-size sub-blocks whose allocation state
 * is a per-span bitmap (bit = 1 means free, as in the paper's Fig 9(b)).
 * Because every list is an independent pool of fixed-size chunks there
 * is no external fragmentation inside the cache, and because the cache
 * is private to its tasklet no mutex is ever taken on the fast path.
 *
 * Lists keep spans with free sub-blocks at the front: a span that
 * becomes full is rotated to the back, and a full span that receives a
 * free is rotated to the front, so an allocation that hits inspects
 * only the head. A miss is still charged as a walk that hops through
 * every span of the class and back to the head, at
 * cost::kListHopInstrs per hop, so its simulated cost grows with the
 * spans the class holds (hundreds per class on long serving runs). The
 * host work per miss is O(1), however: a full head already means a full
 * class, so tryAlloc() charges the hops in one batch
 * (sim::Tasklet::executeRepeated) and rotates the list once. The miss
 * is decided at the head: a block another tasklet frees into the class
 * while the walk is switched out serves the next call, not this one.
 * Span records themselves are MRAM-resident (Section VI-E accounts
 * them per workload, far beyond the 64 KB scratchpad); only the list
 * heads live in WRAM.
 *
 * On the host, a cache keeps every span record in one slab (a vector
 * with a free-slot list), and each class's list is a head, a tail and a
 * count linked through the records' 32-bit prev/next slot indices. An
 * AddrTable maps a span's base address to its slot. The list order is
 * the simulated one and decides which span serves each request: a new
 * span goes to the front, a span that fills up and the head on a miss
 * go to the back, and a full span that gets a free goes to the front.
 * Once the slab and the table have grown to a workload's peak, no
 * operation allocates host memory.
 */

#ifndef PIM_ALLOC_THREAD_CACHE_HH
#define PIM_ALLOC_THREAD_CACHE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "alloc/addr_table.hh"
#include "sim/tasklet.hh"
#include "sim/types.hh"

namespace pim::alloc {

/** Thread cache tuning parameters. */
struct ThreadCacheConfig
{
    /** Span granularity fetched from the buddy backend (paper: 4 KB). */
    uint32_t spanBytes = 4096;
    /** Size classes, ascending powers of two (paper: 16 B .. 2 KB). */
    std::vector<uint32_t> sizeClasses{16, 32, 64, 128, 256, 512, 1024, 2048};
};

/** The per-tasklet frontend allocator. */
class ThreadCache
{
  public:
    /** MRAM bytes of one span record: base + 256-bit bitmap + counters. */
    static constexpr uint32_t kSpanRecordBytes = 48;

    ThreadCache(unsigned owner, const ThreadCacheConfig &cfg);

    /**
     * Size-class index for @p size, or -1 when the request exceeds the
     * largest class and must bypass the cache.
     */
    int classFor(uint32_t size) const;

    /**
     * Fast-path allocation from class @p cls.
     * @return sub-block address, or sim::kNullAddr when every span of
     *         the class is full (caller refills via the backend).
     */
    sim::MramAddr tryAlloc(sim::Tasklet &t, unsigned cls);

    /** Add a fresh span (from the backend) to the front of class @p cls. */
    void installSpan(sim::Tasklet &t, unsigned cls, sim::MramAddr base);

    /** Result of a free through the cache. */
    struct FreeResult
    {
        bool ok = false;            ///< block was live in the span
        bool spanReleased = false;  ///< span became empty and was dropped
        sim::MramAddr spanBase = sim::kNullAddr; ///< span to return if so
    };

    /**
     * Release sub-block @p addr of class @p cls living in the span based
     * at @p span_base. An empty span is dropped from the list (and must
     * be returned to the backend by the caller) unless it is the last
     * span of its class, which stays cached to serve the next burst.
     */
    FreeResult free(sim::Tasklet &t, unsigned cls, sim::MramAddr span_base,
                    sim::MramAddr addr);

    /** Number of size classes. */
    size_t numClasses() const { return cfg_.sizeClasses.size(); }

    /** Byte size of class @p cls. */
    uint32_t classSize(unsigned cls) const { return cfg_.sizeClasses[cls]; }

    /** Spans currently held in class @p cls. */
    size_t spanCount(unsigned cls) const { return lists_[cls].count; }

    /** Spans currently held across all classes. */
    size_t totalSpans() const { return index_.size(); }

    /** Free sub-blocks currently available in class @p cls. */
    uint32_t freeBlocks(unsigned cls) const;

    /** High-water mark of simultaneously held spans (metadata sizing). */
    uint32_t peakSpans() const { return peakSpans_; }

    /** Owning tasklet id. */
    unsigned owner() const { return owner_; }

  private:
    /** No slot: the end of a list, or an empty free-slot list. */
    static constexpr uint32_t kNoSlot = UINT32_MAX;

    /** One 4 KB span and its sub-block bitmap (bit set = free). */
    struct Span
    {
        sim::MramAddr base = sim::kNullAddr;
        /** Neighbours in the class list; next links the free-slot list
         *  while the slot is unused. */
        uint32_t prev = kNoSlot;
        uint32_t next = kNoSlot;
        uint16_t freeCount = 0;
        uint16_t totalCount = 0;
        uint8_t cls = 0;
        std::array<uint64_t, 4> bitmap{};
    };

    /** One size class's spans, linked through the slab. */
    struct SpanList
    {
        uint32_t head = kNoSlot;
        uint32_t tail = kNoSlot;
        uint32_t count = 0;
    };

    /** Take a slot for a span of class @p cls based at @p base, all of
     *  its sub-blocks free. */
    uint32_t newSpan(unsigned cls, sim::MramAddr base);

    void pushFront(SpanList &list, uint32_t slot);
    void unlink(SpanList &list, uint32_t slot);
    /** Move the head span to the back (a no-op below two spans). */
    void rotateHeadToBack(SpanList &list);

    unsigned owner_;
    ThreadCacheConfig cfg_;
    std::vector<Span> slab_;
    uint32_t freeSlot_ = kNoSlot;
    std::vector<SpanList> lists_;
    /** Span base address -> slab slot. */
    AddrTable<uint32_t> index_;
    uint32_t peakSpans_ = 0;
};

} // namespace pim::alloc

#endif // PIM_ALLOC_THREAD_CACHE_HH

#include "alloc/thread_cache.hh"

#include <bit>

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

ThreadCache::ThreadCache(unsigned owner, const ThreadCacheConfig &cfg)
    : owner_(owner), cfg_(cfg), lists_(cfg.sizeClasses.size())
{
    PIM_ASSERT(!cfg.sizeClasses.empty(), "need at least one size class");
    PIM_ASSERT(std::has_single_bit(cfg.spanBytes),
               "span size must be a power of two");
    uint32_t prev = 0;
    for (uint32_t c : cfg_.sizeClasses) {
        PIM_ASSERT(std::has_single_bit(c), "size classes are powers of two");
        PIM_ASSERT(c > prev, "size classes must be ascending");
        PIM_ASSERT(cfg.spanBytes / c <= 256,
                   "span/class ratio exceeds the 256-bit bitmap");
        prev = c;
    }
    PIM_ASSERT(cfg_.sizeClasses.back() <= cfg.spanBytes,
               "largest class must fit in a span");
}

int
ThreadCache::classFor(uint32_t size) const
{
    if (size > cfg_.sizeClasses.back())
        return -1;
    for (size_t i = 0; i < cfg_.sizeClasses.size(); ++i) {
        if (size <= cfg_.sizeClasses[i])
            return static_cast<int>(i);
    }
    return -1;
}

uint32_t
ThreadCache::newSpan(unsigned cls, sim::MramAddr base)
{
    uint32_t slot = freeSlot_;
    if (slot == kNoSlot) {
        slot = static_cast<uint32_t>(slab_.size());
        slab_.emplace_back();
    } else {
        freeSlot_ = slab_[slot].next;
    }
    Span &s = slab_[slot];
    s = Span{};
    s.base = base;
    s.cls = static_cast<uint8_t>(cls);
    s.totalCount = static_cast<uint16_t>(cfg_.spanBytes
                                         / cfg_.sizeClasses[cls]);
    s.freeCount = s.totalCount;
    for (uint32_t i = 0; i < s.totalCount; ++i)
        s.bitmap[i / 64] |= 1ull << (i % 64);
    return slot;
}

void
ThreadCache::pushFront(SpanList &list, uint32_t slot)
{
    Span &s = slab_[slot];
    s.prev = kNoSlot;
    s.next = list.head;
    if (list.head != kNoSlot)
        slab_[list.head].prev = slot;
    else
        list.tail = slot;
    list.head = slot;
    ++list.count;
}

void
ThreadCache::rotateHeadToBack(SpanList &list)
{
    if (list.count < 2)
        return;
    const uint32_t slot = list.head;
    unlink(list, slot);
    Span &s = slab_[slot];
    s.next = kNoSlot;
    s.prev = list.tail;
    slab_[list.tail].next = slot;
    list.tail = slot;
    ++list.count;
}

void
ThreadCache::unlink(SpanList &list, uint32_t slot)
{
    const Span &s = slab_[slot];
    if (s.prev != kNoSlot)
        slab_[s.prev].next = s.next;
    else
        list.head = s.next;
    if (s.next != kNoSlot)
        slab_[s.next].prev = s.prev;
    else
        list.tail = s.prev;
    --list.count;
}

sim::MramAddr
ThreadCache::tryAlloc(sim::Tasklet &t, unsigned cls)
{
    PIM_ASSERT(cls < lists_.size(), "size class out of range");
    t.execute(cost::kThreadCacheHitInstrs);
    SpanList &list = lists_[cls];
    if (list.count == 0)
        return sim::kNullAddr;
    // Invariant: spans with free blocks are kept ahead of full spans,
    // so a full head means every span of the class is full. The
    // modelled walk still hops every span and then the head again,
    // rotating the head to the back at each hop. N + 1 such rotations
    // of an N-span list leave it rotated by one, so rotate once and
    // charge the N + 1 hops in one batch. Rotating first keeps the
    // invariant if another tasklet frees into this class while the walk
    // is switched out: its span still lands at the front, for the next
    // call.
    if (slab_[list.head].freeCount == 0) {
        rotateHeadToBack(list);
        t.executeRepeated(cost::kListHopInstrs, list.count + 1);
        return sim::kNullAddr;
    }
    t.execute(cost::kListHopInstrs);
    // The slab does not move while the scan below is switched out: only
    // this cache's owner installs spans.
    Span &span = slab_[list.head];
    // Scan the bitmap one 64-bit word at a time for a set bit.
    const uint32_t words = (static_cast<uint32_t>(span.totalCount) + 63) / 64;
    for (uint32_t w = 0; w < words; ++w) {
        t.execute(cost::kBitmapWordScanInstrs);
        if (span.bitmap[w] == 0)
            continue;
        const uint32_t bit =
            static_cast<uint32_t>(std::countr_zero(span.bitmap[w]));
        const uint32_t idx = w * 64 + bit;
        span.bitmap[w] &= ~(1ull << bit);
        --span.freeCount;
        const sim::MramAddr addr = span.base + idx * cfg_.sizeClasses[cls];
        if (span.freeCount == 0) {
            // Rotate the now-full span behind the others.
            rotateHeadToBack(list);
        }
        return addr;
    }
    PIM_PANIC("span free count disagrees with its bitmap");
}

void
ThreadCache::installSpan(sim::Tasklet &t, unsigned cls, sim::MramAddr base)
{
    PIM_ASSERT(cls < lists_.size(), "size class out of range");
    PIM_ASSERT(!index_.find(base), "span already installed");
    t.execute(cost::kSpanInstallInstrs);
    const uint32_t slot = newSpan(cls, base);
    pushFront(lists_[cls], slot);
    index_.put(base, slot);
    peakSpans_ = std::max<uint32_t>(peakSpans_,
                                    static_cast<uint32_t>(totalSpans()));
}

ThreadCache::FreeResult
ThreadCache::free(sim::Tasklet &t, unsigned cls, sim::MramAddr span_base,
                  sim::MramAddr addr)
{
    PIM_ASSERT(cls < lists_.size(), "size class out of range");
    t.execute(cost::kThreadCacheFreeInstrs);
    const uint32_t *found = index_.find(span_base);
    if (!found || slab_[*found].cls != cls)
        return FreeResult{};
    SpanList &list = lists_[cls];
    const uint32_t slot = *found;
    Span &span = slab_[slot];

    const uint32_t offset = addr - span.base;
    const uint32_t cls_size = cfg_.sizeClasses[cls];
    if (offset % cls_size != 0)
        return FreeResult{};
    const uint32_t sub = offset / cls_size;
    if (sub >= span.totalCount)
        return FreeResult{};
    const uint64_t mask = 1ull << (sub % 64);
    if (span.bitmap[sub / 64] & mask)
        return FreeResult{}; // double free
    const bool was_full = span.freeCount == 0;
    span.bitmap[sub / 64] |= mask;
    ++span.freeCount;

    FreeResult res;
    res.ok = true;
    if (span.freeCount == span.totalCount && list.count > 1) {
        // Fully free: merge the 4 KB block back to the backend, but
        // keep the last span of a class resident to absorb bursts.
        res.spanReleased = true;
        res.spanBase = span.base;
        index_.erase(span.base);
        unlink(list, slot);
        span.next = freeSlot_;
        freeSlot_ = slot;
    } else if (was_full) {
        // The span has free blocks again: bring it to the front so the
        // allocation fast path finds it.
        unlink(list, slot);
        pushFront(list, slot);
    }
    return res;
}

uint32_t
ThreadCache::freeBlocks(unsigned cls) const
{
    uint32_t n = 0;
    for (uint32_t s = lists_[cls].head; s != kNoSlot; s = slab_[s].next)
        n += slab_[s].freeCount;
    return n;
}

} // namespace pim::alloc

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

ThreadCache::Span
ThreadCache::makeSpan(unsigned cls, sim::MramAddr base) const
{
    Span s;
    s.base = base;
    s.totalCount = static_cast<uint16_t>(cfg_.spanBytes
                                         / cfg_.sizeClasses[cls]);
    s.freeCount = s.totalCount;
    for (uint32_t i = 0; i < s.totalCount; ++i)
        s.bitmap[i / 64] |= 1ull << (i % 64);
    return s;
}

sim::MramAddr
ThreadCache::tryAlloc(sim::Tasklet &t, unsigned cls)
{
    PIM_ASSERT(cls < lists_.size(), "size class out of range");
    t.execute(cost::kThreadCacheHitInstrs);
    auto &list = lists_[cls];
    if (list.empty())
        return sim::kNullAddr;
    // Invariant: spans with free blocks are kept ahead of full spans,
    // so a full head means every span of the class is full. The
    // modelled walk still hops every span and then the head again,
    // rotating the head to the back at each hop. N + 1 such rotations
    // of an N-span list leave it rotated by one, so rotate once (splice
    // keeps the node, so index_'s iterator stays valid) and charge the
    // N + 1 hops in one batch. Rotating first keeps the invariant if
    // another tasklet frees into this class while the walk is switched
    // out: its span still lands at the front, for the next call.
    if (list.front().freeCount == 0) {
        list.splice(list.end(), list, list.begin());
        t.executeRepeated(cost::kListHopInstrs, list.size() + 1);
        return sim::kNullAddr;
    }
    t.execute(cost::kListHopInstrs);
    Span &span = list.front();
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
        if (span.freeCount == 0 && list.size() > 1) {
            // Rotate the now-full span behind the others.
            list.splice(list.end(), list, list.begin());
        }
        return addr;
    }
    PIM_PANIC("span free count disagrees with its bitmap");
}

bool
ThreadCache::installSpan(sim::Tasklet &t, unsigned cls, sim::MramAddr base)
{
    PIM_ASSERT(cls < lists_.size(), "size class out of range");
    PIM_ASSERT(!index_.count(base), "span already installed");
    if (totalSpans() >= cfg_.maxSpans)
        return false;
    t.execute(cost::kSpanInstallInstrs);
    auto &list = lists_[cls];
    list.push_front(makeSpan(cls, base));
    index_[base] = {cls, list.begin()};
    peakSpans_ = std::max<uint32_t>(peakSpans_,
                                    static_cast<uint32_t>(totalSpans()));
    return true;
}

ThreadCache::FreeResult
ThreadCache::free(sim::Tasklet &t, unsigned cls, sim::MramAddr span_base,
                  sim::MramAddr addr)
{
    PIM_ASSERT(cls < lists_.size(), "size class out of range");
    t.execute(cost::kThreadCacheFreeInstrs);
    const auto idx_it = index_.find(span_base);
    if (idx_it == index_.end() || idx_it->second.first != cls)
        return FreeResult{};
    auto &list = lists_[cls];
    const auto span_it = idx_it->second.second;
    Span &span = *span_it;

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
    if (span.freeCount == span.totalCount && list.size() > 1) {
        // Fully free: merge the 4 KB block back to the backend, but
        // keep the last span of a class resident to absorb bursts.
        res.spanReleased = true;
        res.spanBase = span.base;
        index_.erase(idx_it);
        list.erase(span_it);
    } else if (was_full) {
        // The span has free blocks again: bring it to the front so the
        // allocation fast path finds it.
        list.splice(list.begin(), list, span_it);
    }
    return res;
}

uint32_t
ThreadCache::freeBlocks(unsigned cls) const
{
    uint32_t n = 0;
    for (const auto &s : lists_[cls])
        n += s.freeCount;
    return n;
}

} // namespace pim::alloc

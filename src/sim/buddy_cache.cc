#include "sim/buddy_cache.hh"

#include "util/logging.hh"

namespace pim::sim {

BuddyCache::BuddyCache(const BuddyCacheConfig &cfg)
    : cfg_(cfg), entries_(cfg.entries)
{
    PIM_ASSERT(cfg.entries > 0, "buddy cache needs at least one entry");
}

void
BuddyCache::init()
{
    used_ = 0;
    useClock_ = 0;
}

BuddyCache::Access
BuddyCache::access(MramAddr addr, bool write)
{
    ++stats_.lookups;
    size_t lru = 0;
    uint64_t oldest = UINT64_MAX;
    for (size_t i = 0; i < used_; ++i) {
        Entry &e = entries_[i];
        if (e.addr == addr) {
            ++stats_.hits;
            e.dirty |= write;
            e.lastUse = ++useClock_;
            return {true, kNullAddr};
        }
        if (e.lastUse < oldest) {
            oldest = e.lastUse;
            lru = i;
        }
    }
    ++stats_.misses;
    Access out;
    if (used_ < entries_.size()) {
        lru = used_++;
    } else {
        ++stats_.evictions;
        if (entries_[lru].dirty) {
            ++stats_.dirtyEvictions;
            out.writeBack = entries_[lru].addr;
        }
    }
    entries_[lru] = Entry{addr, write, ++useClock_};
    return out;
}

} // namespace pim::sim

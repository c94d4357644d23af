#include "alloc/pim_malloc.hh"

#include <algorithm>

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

namespace {

/** Thread caches exist for tasklets 0..@p tasklets-1 only. */
void
requireThreadCache(const sim::Tasklet &t, unsigned tasklets)
{
    PIM_ASSERT(t.id() < tasklets, "tasklet ", t.id(),
               " has no thread cache: the allocator was built for ",
               tasklets, " tasklets");
}

} // namespace

PimMallocAllocator::PimMallocAllocator(sim::Dpu &dpu,
                                       const PimMallocConfig &cfg)
    : dpu_(dpu), cfg_(cfg), tcCfg_{cfg.spanBytes, cfg.sizeClasses}
{
    PIM_ASSERT(cfg.numTasklets >= 1
                   && cfg.numTasklets <= dpu.config().maxTasklets,
               "invalid tasklet count ", cfg.numTasklets);
    const uint32_t nodes = BuddyTree::nodesFor(cfg.heapBytes, cfg.spanBytes);
    store_ = makeMetadataStore(dpu, cfg.metadata, nodes, cfg.swBufferBytes);
    const sim::MramAddr heap_base = store_->bytes();
    PIM_ASSERT(static_cast<uint64_t>(heap_base) + cfg.heapBytes
                   <= dpu.mram().size(),
               "PIM-malloc heap does not fit in MRAM");
    tree_ = std::make_unique<BuddyTree>(*store_, heap_base, cfg.heapBytes,
                                        cfg.spanBytes);

    // Span records are MRAM-resident (the paper's Section VI-E accounts
    // them per request, e.g. 5.2 KB for LLM attention, which far exceeds
    // the scratchpad); WRAM holds one list head per size class per
    // tasklet.
    dpu.wramReserve(cfg.numTasklets
                    * static_cast<uint32_t>(cfg.sizeClasses.size()) * 8);
    caches_.reserve(cfg.numTasklets);
    for (unsigned i = 0; i < cfg.numTasklets; ++i)
        caches_.emplace_back(i, tcCfg_);
}

std::string
PimMallocAllocator::name() const
{
    std::string n = cfg_.metadata == MetadataMode::HwCache
        ? "PIM-malloc-HW/SW" : "PIM-malloc-SW";
    if (cfg_.metadata == MetadataMode::Direct)
        n = "PIM-malloc-direct";
    if (!cfg_.prePopulate)
        n += "-lazy";
    return n;
}

void
PimMallocAllocator::init(sim::Tasklet &t)
{
    // Table II initAllocator(): reset metadata; pre-populate each thread
    // cache with one free span per size class (eager variants only).
    // Executed by a single designated tasklet.
    tree_->reset(t);
    const bool trace = stats_.traceEvents;
    stats_ = AllocStats{};
    stats_.traceEvents = trace;
    live_.clear();
    // Rebuild the thread caches so a re-init starts from a clean slate
    // (the WRAM list heads are already reserved; no new reservation needed).
    caches_.clear();
    for (unsigned i = 0; i < cfg_.numTasklets; ++i)
        caches_.emplace_back(i, tcCfg_);
    if (cfg_.prePopulate) {
        for (auto &cache : caches_) {
            for (unsigned cls = 0; cls < cache.numClasses(); ++cls) {
                const sim::MramAddr span = tree_->alloc(t, cfg_.spanBytes);
                PIM_ASSERT(span != sim::kNullAddr,
                           "heap too small to pre-populate thread caches");
                cache.installSpan(t, cls, span);
                stats_.adjustReserved(cfg_.spanBytes);
            }
        }
    }
    initialized_ = true;
}

sim::MramAddr
PimMallocAllocator::backendAlloc(sim::Tasklet &t, uint32_t size)
{
    mutex_.lock(t);
    const sim::MramAddr addr = tree_->alloc(t, size);
    mutex_.unlock(t);
    return addr;
}

uint32_t
PimMallocAllocator::backendFree(sim::Tasklet &t, sim::MramAddr addr)
{
    mutex_.lock(t);
    const uint32_t freed = tree_->free(t, addr);
    mutex_.unlock(t);
    return freed;
}

sim::MramAddr
PimMallocAllocator::malloc(sim::Tasklet &t, uint32_t size)
{
    PIM_ASSERT(initialized_, "pimMalloc before initAllocator");
    PIM_ASSERT(size > 0, "zero-byte allocation");
    requireThreadCache(t, cfg_.numTasklets);
    const uint64_t start = t.clock();
    t.execute(cost::kApiOverheadInstrs + cost::kSizeClassLookupInstrs);

    ThreadCache &cache = caches_[t.id()];
    const auto owner = static_cast<uint16_t>(t.id());
    const int cls = cache.classFor(size);

    if (cls < 0) {
        // Case #3 (Fig 10(c)): thread cache bypass.
        const sim::MramAddr addr = backendAlloc(t, size);
        if (addr == sim::kNullAddr) {
            ++stats_.failures;
            return sim::kNullAddr;
        }
        live_.put(addr, LiveBlock{size, true, 0, owner});
        stats_.adjustReserved(static_cast<int64_t>(tree_->roundSize(size)));
        stats_.adjustRequested(static_cast<int64_t>(size));
        stats_.recordMalloc(ServiceLevel::Bypass, start, t.clock() - start,
                            size, t.id());
        return addr;
    }

    // Case #1 (Fig 10(a)): thread cache hit.
    sim::MramAddr addr = cache.tryAlloc(t, static_cast<unsigned>(cls));
    ServiceLevel level = ServiceLevel::Frontend;

    if (addr == sim::kNullAddr) {
        // Case #2 (Fig 10(b)): miss — refill with a span from the buddy.
        level = ServiceLevel::Backend;
        const sim::MramAddr span = backendAlloc(t, cfg_.spanBytes);
        if (span != sim::kNullAddr) {
            cache.installSpan(t, static_cast<unsigned>(cls), span);
            stats_.adjustReserved(cfg_.spanBytes);
            addr = cache.tryAlloc(t, static_cast<unsigned>(cls));
            PIM_ASSERT(addr != sim::kNullAddr,
                       "fresh span failed to service a request");
        }
    }

    if (addr == sim::kNullAddr) {
        ++stats_.failures;
        return sim::kNullAddr;
    }

    live_.put(addr,
              LiveBlock{size, false, static_cast<uint8_t>(cls), owner});
    stats_.adjustRequested(static_cast<int64_t>(size));
    stats_.recordMalloc(level, start, t.clock() - start, size, t.id());
    return addr;
}

bool
PimMallocAllocator::free(sim::Tasklet &t, sim::MramAddr addr)
{
    PIM_ASSERT(initialized_, "pimFree before initAllocator");
    requireThreadCache(t, cfg_.numTasklets);
    t.execute(cost::kApiOverheadInstrs);
    const LiveBlock *record = live_.find(addr);
    if (!record)
        return false;
    // A copy: other tasklets' mallocs and frees may move the table's
    // entries while this one is switched out.
    const LiveBlock block = *record;

    if (block.bypass) {
        const uint32_t freed = backendFree(t, addr);
        if (freed == 0)
            return false;
        stats_.adjustReserved(-static_cast<int64_t>(freed));
    } else {
        const sim::MramAddr heap_base = tree_->heapBase();
        const sim::MramAddr span_base =
            heap_base + (addr - heap_base) / cfg_.spanBytes * cfg_.spanBytes;
        const auto res =
            caches_[block.taskletId].free(t, block.cls, span_base, addr);
        if (!res.ok)
            return false;
        if (res.spanReleased) {
            const uint32_t freed = backendFree(t, res.spanBase);
            PIM_ASSERT(freed == cfg_.spanBytes,
                       "span return freed unexpected size ", freed);
            stats_.adjustReserved(-static_cast<int64_t>(freed));
        }
    }
    stats_.adjustRequested(-static_cast<int64_t>(block.requested));
    ++stats_.freeCalls;
    live_.erase(addr);
    return true;
}

uint64_t
PimMallocAllocator::metadataBytes() const
{
    return backendMetadataBytes() + threadCacheMetadataBytes();
}

uint64_t
PimMallocAllocator::threadCacheMetadataBytes() const
{
    uint64_t n = 0;
    for (const auto &c : caches_)
        n += c.totalSpans() * ThreadCache::kSpanRecordBytes;
    return n;
}

} // namespace pim::alloc

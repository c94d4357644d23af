#include "alloc/straw_man.hh"

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

std::unique_ptr<MetadataStore>
makeMetadataStore(sim::Dpu &dpu, MetadataMode mode, uint32_t num_nodes,
                  uint32_t sw_buffer_bytes)
{
    switch (mode) {
      case MetadataMode::Direct:
        return std::make_unique<DirectStore>(dpu, 0, num_nodes);
      case MetadataMode::SwBuffer:
        return std::make_unique<SwBufferStore>(dpu, 0, num_nodes,
                                               sw_buffer_bytes);
      case MetadataMode::HwCache:
        return std::make_unique<HwCacheStore>(dpu, 0, num_nodes);
    }
    PIM_PANIC("unknown metadata mode");
}

StrawManAllocator::StrawManAllocator(sim::Dpu &dpu, const StrawManConfig &cfg)
    : dpu_(dpu), cfg_(cfg)
{
    const uint32_t nodes = BuddyTree::nodesFor(cfg.heapBytes, cfg.minBlock);
    store_ = makeMetadataStore(dpu, cfg.metadata, nodes, cfg.swBufferBytes);
    const sim::MramAddr heap_base = store_->bytes();
    PIM_ASSERT(static_cast<uint64_t>(heap_base) + cfg.heapBytes
                   <= dpu.mram().size(),
               "straw-man heap does not fit in MRAM");
    tree_ = std::make_unique<BuddyTree>(*store_, heap_base, cfg.heapBytes,
                                        cfg.minBlock);
}

std::string
StrawManAllocator::name() const
{
    return "straw-man";
}

void
StrawManAllocator::init(sim::Tasklet &t)
{
    tree_->reset(t);
    const bool trace = stats_.traceEvents;
    stats_ = AllocStats{};
    stats_.traceEvents = trace;
    liveRequests_.clear();
}

sim::MramAddr
StrawManAllocator::malloc(sim::Tasklet &t, uint32_t size)
{
    const uint64_t start = t.clock();
    t.execute(cost::kApiOverheadInstrs);
    mutex_.lock(t);
    const sim::MramAddr addr = tree_->alloc(t, size);
    mutex_.unlock(t);
    if (addr == sim::kNullAddr) {
        ++stats_.failures;
        return sim::kNullAddr;
    }
    liveRequests_.put(addr, size);
    stats_.adjustReserved(static_cast<int64_t>(tree_->roundSize(size)));
    stats_.adjustRequested(static_cast<int64_t>(size));
    stats_.recordMalloc(ServiceLevel::Backend, start, t.clock() - start,
                        size, t.id());
    return addr;
}

bool
StrawManAllocator::free(sim::Tasklet &t, sim::MramAddr addr)
{
    t.execute(cost::kApiOverheadInstrs);
    mutex_.lock(t);
    const uint32_t freed = tree_->free(t, addr);
    mutex_.unlock(t);
    if (freed == 0)
        return false;
    ++stats_.freeCalls;
    const uint32_t *requested = liveRequests_.find(addr);
    PIM_ASSERT(requested, "tree freed a block the allocator never handed out");
    stats_.adjustReserved(-static_cast<int64_t>(freed));
    stats_.adjustRequested(-static_cast<int64_t>(*requested));
    liveRequests_.erase(addr);
    return true;
}

} // namespace pim::alloc

#include "alloc/metadata_store.hh"

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

MetadataStore::MetadataStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                             uint32_t num_nodes)
    : dpu_(dpu), base_(mram_base), numNodes_(num_nodes),
      wordCount_((num_nodes + kNodesPerWord - 1) / kNodesPerWord)
{
    PIM_ASSERT(num_nodes > 0, "metadata store needs at least one node");
    PIM_ASSERT(static_cast<uint64_t>(mram_base) + bytes()
                   <= dpu.mram().size(),
               "metadata array does not fit in MRAM");
}

NodeState
MetadataStore::rawGet(uint32_t node) const
{
    PIM_ASSERT(node < numNodes_, "node index out of range: ", node);
    const uint32_t word = dpu_.mram().read<uint32_t>(wordAddr(node));
    return static_cast<NodeState>((word >> bitShift(node)) & 0x3u);
}

void
MetadataStore::rawSet(uint32_t node, NodeState s)
{
    PIM_ASSERT(node < numNodes_, "node index out of range: ", node);
    const sim::MramAddr addr = wordAddr(node);
    uint32_t word = dpu_.mram().read<uint32_t>(addr);
    word &= ~(0x3u << bitShift(node));
    word |= static_cast<uint32_t>(s) << bitShift(node);
    dpu_.mram().write<uint32_t>(addr, word);
}

void
MetadataStore::reset(sim::Tasklet &t)
{
    dpu_.mram().fill(base_, bytes(), 0);
    // Bulk zeroing is one streaming DMA over the array.
    t.dmaWrite(base_, bytes(), sim::TrafficClass::Metadata);
}

// --- DirectStore ---

NodeState
DirectStore::get(sim::Tasklet &t, uint32_t node)
{
    (void)t;
    return rawGet(node);
}

void
DirectStore::set(sim::Tasklet &t, uint32_t node, NodeState s)
{
    (void)t;
    rawSet(node, s);
}

// --- SwBufferStore ---

SwBufferStore::SwBufferStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                             uint32_t num_nodes, uint32_t buffer_bytes)
    : MetadataStore(dpu, mram_base, num_nodes), bufferBytes_(buffer_bytes)
{
    PIM_ASSERT(buffer_bytes >= kWordBytes,
               "SW buffer must hold at least one word");
    dpu.wramReserve(buffer_bytes);
}

void
SwBufferStore::ensureResident(sim::Tasklet &t, uint32_t node)
{
    const uint32_t byte_off = (node / kNodesPerWord) * kWordBytes;
    const uint32_t window = byte_off - byte_off % bufferBytes_;
    if (valid_ && window == windowStart_) {
        ++hits_;
        t.execute(cost::kSwBufferHitInstrs);
        return;
    }
    ++misses_;
    t.execute(cost::kSwBufferMissInstrs);
    // Coarse-grained policy: flush the whole window, reload the whole
    // window containing the requested word (Fig 13(a), lines 8-15).
    uint32_t resident = std::min(bufferBytes_, bytes() - windowStart_);
    if (valid_ && dirty_) {
        t.dmaWrite(base_ + windowStart_, resident,
                   sim::TrafficClass::Metadata);
    }
    windowStart_ = window;
    resident = std::min(bufferBytes_, bytes() - windowStart_);
    t.dmaRead(base_ + windowStart_, resident, sim::TrafficClass::Metadata);
    valid_ = true;
    dirty_ = false;
}

NodeState
SwBufferStore::get(sim::Tasklet &t, uint32_t node)
{
    ensureResident(t, node);
    return rawGet(node);
}

void
SwBufferStore::set(sim::Tasklet &t, uint32_t node, NodeState s)
{
    ensureResident(t, node);
    rawSet(node, s);
    dirty_ = true;
}

void
SwBufferStore::reset(sim::Tasklet &t)
{
    MetadataStore::reset(t);
    valid_ = false;
    dirty_ = false;
}

// --- DataCacheStore ---

DataCacheStore::DataCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                               uint32_t num_nodes, uint32_t line_bytes,
                               uint32_t lines)
    : MetadataStore(dpu, mram_base, num_nodes), lineBytes_(line_bytes),
      lines_(sim::BuddyCacheConfig{lines})
{
    PIM_ASSERT(line_bytes >= kWordBytes, "invalid data cache geometry");
}

void
DataCacheStore::access(sim::Tasklet &t, uint32_t node, bool write)
{
    const sim::MramAddr word = wordAddr(node);
    const sim::MramAddr line = word - (word - base_) % lineBytes_;
    const auto a = lines_.access(line, write);
    // 1-cycle tag check, like any L1 hit.
    t.stall(1, sim::CycleKind::Run);
    if (a.hit)
        return;
    // Coarse-grained line fill: the granularity mismatch the paper's
    // Section VII calls out — a whole 64 B line moves for 2 bits of
    // metadata.
    if (a.writeBack != sim::kNullAddr)
        t.dmaWrite(a.writeBack, lineBytes_, sim::TrafficClass::Metadata);
    t.dmaRead(line, lineBytes_, sim::TrafficClass::Metadata);
}

NodeState
DataCacheStore::get(sim::Tasklet &t, uint32_t node)
{
    access(t, node, false);
    return rawGet(node);
}

void
DataCacheStore::set(sim::Tasklet &t, uint32_t node, NodeState s)
{
    access(t, node, true);
    rawSet(node, s);
}

void
DataCacheStore::reset(sim::Tasklet &t)
{
    MetadataStore::reset(t);
    lines_.init();
}

// --- HwCacheStore ---

HwCacheStore::HwCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                           uint32_t num_nodes)
    : MetadataStore(dpu, mram_base, num_nodes)
{
    dpu.buddyCache().init();
}

void
HwCacheStore::access(sim::Tasklet &t, uint32_t node, bool write)
{
    // The CAM is updated before the charges below, which may switch
    // this tasklet out. That is safe: every tree access holds the
    // allocator's mutex, and init runs on one tasklet, so no other
    // tasklet reaches the cache in between.
    const sim::MramAddr wa = wordAddr(node);
    const auto a = dpu_.buddyCache().access(wa, write);
    const uint32_t lat = dpu_.config().buddyCache.accessCycles;
    t.stall(lat, sim::CycleKind::Run); // lookup_bc
    if (a.hit)
        return;
    // Miss: fetch exactly the requested word from DRAM (fine-grained),
    // then fill via write_bc, writing back a dirty LRU victim if any.
    // MRAM is kept current on every set(), so the write-back only
    // charges its traffic.
    t.execute(cost::kHwCacheMissInstrs);
    t.dmaRead(wa, kWordBytes, sim::TrafficClass::Metadata);
    t.stall(lat, sim::CycleKind::Run); // write_bc fill
    if (a.writeBack != sim::kNullAddr)
        t.dmaWrite(a.writeBack, kWordBytes, sim::TrafficClass::Metadata);
}

NodeState
HwCacheStore::get(sim::Tasklet &t, uint32_t node)
{
    access(t, node, false);
    // read_bc
    t.stall(dpu_.config().buddyCache.accessCycles, sim::CycleKind::Run);
    return rawGet(node);
}

void
HwCacheStore::set(sim::Tasklet &t, uint32_t node, NodeState s)
{
    access(t, node, true);
    rawSet(node, s);
    // write_bc (access() marked the entry dirty). MRAM is updated above
    // so reads through any path stay coherent; the word's write-back
    // traffic is charged when the dirty entry is evicted.
    t.stall(dpu_.config().buddyCache.accessCycles, sim::CycleKind::Run);
}

void
HwCacheStore::reset(sim::Tasklet &t)
{
    MetadataStore::reset(t);
    dpu_.buddyCache().init();
}

} // namespace pim::alloc

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

void
DirectStore::flush(sim::Tasklet &t)
{
    (void)t;
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
SwBufferStore::flush(sim::Tasklet &t)
{
    if (valid_ && dirty_) {
        const uint32_t resident =
            std::min(bufferBytes_, bytes() - windowStart_);
        t.dmaWrite(base_ + windowStart_, resident,
                   sim::TrafficClass::Metadata);
        dirty_ = false;
    }
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
      lines_(lines)
{
    PIM_ASSERT(line_bytes >= kWordBytes && lines > 0,
               "invalid data cache geometry");
}

void
DataCacheStore::ensureResident(sim::Tasklet &t, uint32_t node,
                               bool mark_dirty)
{
    const uint32_t byte_off = (node / kNodesPerWord) * kWordBytes;
    const uint32_t tag = byte_off - byte_off % lineBytes_;
    // 1-cycle tag check, like any L1 hit.
    t.stall(1, sim::CycleKind::Run);
    for (auto &l : lines_) {
        if (l.valid && l.tag == tag) {
            ++hits_;
            l.lastUse = ++useClock_;
            l.dirty |= mark_dirty;
            return;
        }
    }
    ++misses_;
    // Coarse-grained line fill: the granularity mismatch the paper's
    // Section VII calls out — a whole 64 B line moves for 2 bits of
    // metadata.
    Line *victim = nullptr;
    for (auto &l : lines_) {
        if (!l.valid) {
            victim = &l;
            break;
        }
        if (!victim || l.lastUse < victim->lastUse)
            victim = &l;
    }
    if (victim->valid && victim->dirty)
        t.dmaWrite(base_ + victim->tag, lineBytes_,
                   sim::TrafficClass::Metadata);
    t.dmaRead(base_ + tag, lineBytes_, sim::TrafficClass::Metadata);
    *victim = Line{true, mark_dirty, tag, ++useClock_};
}

NodeState
DataCacheStore::get(sim::Tasklet &t, uint32_t node)
{
    ensureResident(t, node, false);
    return rawGet(node);
}

void
DataCacheStore::set(sim::Tasklet &t, uint32_t node, NodeState s)
{
    ensureResident(t, node, true);
    rawSet(node, s);
}

void
DataCacheStore::flush(sim::Tasklet &t)
{
    for (auto &l : lines_) {
        if (l.valid && l.dirty) {
            t.dmaWrite(base_ + l.tag, lineBytes_,
                       sim::TrafficClass::Metadata);
            l.dirty = false;
        }
    }
}

void
DataCacheStore::reset(sim::Tasklet &t)
{
    MetadataStore::reset(t);
    for (auto &l : lines_)
        l = Line{};
}

// --- HwCacheStore ---

HwCacheStore::HwCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                           uint32_t num_nodes)
    : MetadataStore(dpu, mram_base, num_nodes)
{
    dpu.buddyCache().init();
}

void
HwCacheStore::ensureResident(sim::Tasklet &t, sim::MramAddr word_addr)
{
    auto &cache = dpu_.buddyCache();
    const uint32_t lat = dpu_.config().buddyCache.accessCycles;
    // lookup_bc
    t.stall(lat, sim::CycleKind::Run);
    if (cache.lookup(word_addr))
        return;
    // Miss: fetch exactly the requested word from DRAM (fine-grained),
    // then fill via write_bc, writing back a dirty LRU victim if any.
    t.execute(cost::kHwCacheMissInstrs);
    t.dmaRead(word_addr, kWordBytes, sim::TrafficClass::Metadata);
    const uint32_t value = dpu_.mram().read<uint32_t>(word_addr);
    auto victim = cache.insert(word_addr, value, false);
    t.stall(lat, sim::CycleKind::Run); // write_bc fill
    if (victim) {
        // The array itself is kept coherent on every set(), so the
        // victim's payload is already in MRAM; charge the write-back.
        t.dmaWrite(victim->first, kWordBytes, sim::TrafficClass::Metadata);
    }
}

NodeState
HwCacheStore::get(sim::Tasklet &t, uint32_t node)
{
    const sim::MramAddr wa = wordAddr(node);
    ensureResident(t, wa);
    // read_bc
    t.stall(dpu_.config().buddyCache.accessCycles, sim::CycleKind::Run);
    dpu_.buddyCache().read(wa);
    return rawGet(node);
}

void
HwCacheStore::set(sim::Tasklet &t, uint32_t node, NodeState s)
{
    const sim::MramAddr wa = wordAddr(node);
    ensureResident(t, wa);
    rawSet(node, s);
    // write_bc updates the cached word in place and marks it dirty; the
    // MRAM array is updated above so reads through any path stay
    // coherent, while the traffic cost of persisting the word is charged
    // when the dirty entry is evicted or flushed.
    t.stall(dpu_.config().buddyCache.accessCycles, sim::CycleKind::Run);
    dpu_.buddyCache().write(wa, dpu_.mram().read<uint32_t>(wa));
}

void
HwCacheStore::flush(sim::Tasklet &t)
{
    for (auto &wb : dpu_.buddyCache().flushDirty())
        t.dmaWrite(wb.first, kWordBytes, sim::TrafficClass::Metadata);
}

void
HwCacheStore::reset(sim::Tasklet &t)
{
    MetadataStore::reset(t);
    dpu_.buddyCache().init();
}

} // namespace pim::alloc

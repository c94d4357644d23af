#include "alloc/metadata_store.hh"

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

MetadataStore::MetadataStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                             uint32_t num_nodes, Kind kind)
    : dpu_(dpu), base_(mram_base), numNodes_(num_nodes),
      wordCount_((num_nodes + kNodesPerWord - 1) / kNodesPerWord),
      kind_(kind)
{
    PIM_ASSERT(num_nodes > 0, "metadata store needs at least one node");
    PIM_ASSERT(static_cast<uint64_t>(mram_base) + bytes()
                   <= dpu.mram().size(),
               "metadata array does not fit in MRAM");
}

void
MetadataStore::reset(sim::Tasklet &t)
{
    dpu_.mram().fill(base_, bytes(), 0);
    // Bulk zeroing is one streaming DMA over the array.
    t.dmaWrite(base_, bytes(), sim::TrafficClass::Metadata);
}

// --- SwBufferStore ---

SwBufferStore::SwBufferStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                             uint32_t num_nodes, uint32_t buffer_bytes)
    : MetadataStore(dpu, mram_base, num_nodes, Kind::SwBuffer),
      bufferBytes_(buffer_bytes)
{
    PIM_ASSERT(buffer_bytes >= kWordBytes,
               "SW buffer must hold at least one word");
    dpu.wramReserve(buffer_bytes);
}

void
SwBufferStore::reload(sim::Tasklet &t, uint32_t byte_off)
{
    ++misses_;
    t.execute(cost::kSwBufferMissInstrs);
    // Coarse-grained policy: flush the whole window, reload the whole
    // window containing the requested word (Fig 13(a), lines 8-15).
    uint32_t resident = std::min(bufferBytes_, bytes() - windowStart_);
    if (valid_ && dirty_) {
        t.dmaWrite(base_ + windowStart_, resident,
                   sim::TrafficClass::Metadata);
    }
    windowStart_ = byte_off - byte_off % bufferBytes_;
    resident = std::min(bufferBytes_, bytes() - windowStart_);
    t.dmaRead(base_ + windowStart_, resident, sim::TrafficClass::Metadata);
    valid_ = true;
    dirty_ = false;
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
    : MetadataStore(dpu, mram_base, num_nodes, Kind::DataCache),
      lineBytes_(line_bytes), lines_(sim::BuddyCacheConfig{lines})
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

void
DataCacheStore::reset(sim::Tasklet &t)
{
    MetadataStore::reset(t);
    lines_.init();
}

// --- HwCacheStore ---

HwCacheStore::HwCacheStore(sim::Dpu &dpu, sim::MramAddr mram_base,
                           uint32_t num_nodes)
    : MetadataStore(dpu, mram_base, num_nodes, Kind::HwCache)
{
    dpu.buddyCache().init();
}

void
HwCacheStore::fill(sim::Tasklet &t, sim::MramAddr wa,
                   sim::MramAddr write_back)
{
    // Fetch exactly the requested word from DRAM (fine-grained), then
    // fill via write_bc, writing back a dirty LRU victim if any. MRAM
    // is kept current on every set(), so the write-back only charges
    // its traffic.
    t.execute(cost::kHwCacheMissInstrs);
    t.dmaRead(wa, kWordBytes, sim::TrafficClass::Metadata);
    t.stall(dpu_.config().buddyCache.accessCycles,
            sim::CycleKind::Run); // write_bc fill
    if (write_back != sim::kNullAddr)
        t.dmaWrite(write_back, kWordBytes, sim::TrafficClass::Metadata);
}

void
HwCacheStore::reset(sim::Tasklet &t)
{
    MetadataStore::reset(t);
    dpu_.buddyCache().init();
}

} // namespace pim::alloc

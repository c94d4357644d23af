#include "alloc/wram_buddy.hh"

#include <bit>

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

WramBuddy::WramBuddy(sim::Dpu &dpu, uint32_t heap_bytes, uint32_t min_block)
    : dpu_(dpu), heapBytes_(heap_bytes), minBlock_(min_block)
{
    PIM_ASSERT(std::has_single_bit(heap_bytes),
               "WRAM heap must be a power of two");
    PIM_ASSERT(std::has_single_bit(min_block),
               "WRAM min block must be a power of two");
    levels_ = 1;
    while (blockSize(levels_ - 1) > minBlock_)
        ++levels_;
    states_.assign((1u << levels_) - 1, State::Free);
    heapBase_ = dpu.wramReserve(heap_bytes);
    dpu.wramReserve(metadataBytes());
}

uint32_t
WramBuddy::metadataBytes() const
{
    // UPMEM's implementation packs this tighter (2 bits/node, < 512 B
    // for the 32 KB heap); we account the packed size.
    return (static_cast<uint32_t>(states_.size()) * 2 + 7) / 8;
}

uint32_t
WramBuddy::offsetOf(uint32_t node, uint32_t level) const
{
    const uint32_t first = (1u << level) - 1;
    return (node - first) * blockSize(level);
}

uint32_t
WramBuddy::tryAlloc(sim::Tasklet &t, uint32_t node, uint32_t level,
                    uint32_t target)
{
    t.execute(cost::kNodeVisitInstrs);
    const State state = states_[node];
    if (level == target) {
        if (state != State::Free)
            return kWramNull;
        states_[node] = State::Allocated;
        t.execute(cost::kNodeUpdateInstrs);
        return heapBase_ + offsetOf(node, level);
    }
    if (state == State::Allocated)
        return kWramNull;
    if (state == State::Free) {
        states_[node] = State::Split;
        t.execute(cost::kNodeUpdateInstrs);
    }
    const uint32_t left = 2 * node + 1;
    uint32_t r = tryAlloc(t, left, level + 1, target);
    if (r == kWramNull)
        r = tryAlloc(t, left + 1, level + 1, target);
    if (r == kWramNull && state == State::Free) {
        states_[node] = State::Free;
        t.execute(cost::kNodeUpdateInstrs);
    }
    return r;
}

uint32_t
WramBuddy::alloc(sim::Tasklet &t, uint32_t size)
{
    // Checked before rounding: above 2^31 a size has no power of two
    // in 32 bits to round up to.
    if (size > heapBytes_)
        return kWramNull;
    const uint32_t rounded =
        size <= minBlock_ ? minBlock_ : std::bit_ceil(size);
    const uint32_t target =
        static_cast<uint32_t>(std::countr_zero(heapBytes_ / rounded));
    mutex_.lock(t);
    const uint32_t r = tryAlloc(t, 0, 0, target);
    if (r != kWramNull)
        allocatedBytes_ += rounded;
    mutex_.unlock(t);
    return r;
}

bool
WramBuddy::free(sim::Tasklet &t, uint32_t addr)
{
    if (addr < heapBase_ || addr >= heapBase_ + heapBytes_)
        return false;
    const uint32_t offset = addr - heapBase_;
    if (offset % minBlock_ != 0)
        return false;

    mutex_.lock(t);
    uint32_t node = 0;
    uint32_t level = 0;
    bool found = false;
    for (;;) {
        t.execute(cost::kNodeVisitInstrs);
        const State state = states_[node];
        const uint32_t node_off = offsetOf(node, level);
        if (state == State::Allocated) {
            found = node_off == offset;
            break;
        }
        if (state == State::Free || level + 1 >= levels_)
            break;
        const uint32_t child_size = blockSize(level + 1);
        const uint32_t left = 2 * node + 1;
        node = (offset - node_off < child_size) ? left : left + 1;
        ++level;
    }
    if (!found) {
        mutex_.unlock(t);
        return false;
    }

    allocatedBytes_ -= blockSize(level);
    states_[node] = State::Free;
    t.execute(cost::kNodeUpdateInstrs);
    while (level > 0) {
        const uint32_t buddy = ((node - 1) ^ 1u) + 1;
        t.execute(cost::kNodeVisitInstrs);
        if (states_[buddy] != State::Free)
            break;
        const uint32_t parent = (node - 1) / 2;
        states_[parent] = State::Free;
        t.execute(cost::kNodeUpdateInstrs);
        node = parent;
        --level;
    }
    mutex_.unlock(t);
    return true;
}

} // namespace pim::alloc

#include "alloc/buddy_tree.hh"

#include <bit>

#include "alloc/cost_model.hh"
#include "util/logging.hh"

namespace pim::alloc {

namespace {

bool
isPow2(uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

} // namespace

BuddyTree::BuddyTree(MetadataStore &store, sim::MramAddr heap_base,
                     uint32_t heap_bytes, uint32_t min_block)
    : store_(store), heapBase_(heap_base), heapBytes_(heap_bytes),
      minBlock_(min_block)
{
    PIM_ASSERT(isPow2(heap_bytes), "heap size must be a power of two");
    PIM_ASSERT(isPow2(min_block), "min block must be a power of two");
    PIM_ASSERT(min_block <= heap_bytes, "min block exceeds heap");
    levels_ = 1;
    while (blockSize(levels_ - 1) > minBlock_)
        ++levels_;
    PIM_ASSERT(store.numNodes() >= numNodes(),
               "metadata store too small: ", store.numNodes(), " < ",
               numNodes());
}

uint32_t
BuddyTree::roundSize(uint32_t size) const
{
    if (size <= minBlock_)
        return minBlock_;
    return std::bit_ceil(size);
}

uint32_t
BuddyTree::levelFor(uint32_t rounded) const
{
    // blockSize(level) == heapBytes_ >> level == rounded
    return static_cast<uint32_t>(
        std::countr_zero(heapBytes_ / rounded));
}

template <typename Store>
sim::MramAddr
BuddyTree::tryAlloc(Store &store, sim::Tasklet &t, uint32_t node,
                    uint32_t level, uint32_t target)
{
    ++stats_.nodesVisited;
    t.execute(cost::kNodeVisitInstrs);
    const NodeState state = store.get(t, node);

    if (level == target) {
        if (state != NodeState::Free)
            return sim::kNullAddr;
        t.execute(cost::kNodeUpdateInstrs);
        store.set(t, node, NodeState::Allocated);
        return heapBase_ + offsetOf(node, level);
    }

    if (state == NodeState::Allocated || state == NodeState::Full)
        return sim::kNullAddr;

    if (state == NodeState::Free) {
        // Split: children are implicitly Free (the invariant maintained
        // by free()'s merge path), so mark this node divided and
        // descend.
        t.execute(cost::kNodeUpdateInstrs);
        store.set(t, node, NodeState::Split);
    }

    const uint32_t left = 2 * node + 1;
    sim::MramAddr r = tryAlloc(store, t, left, level + 1, target);
    if (r == sim::kNullAddr)
        r = tryAlloc(store, t, left + 1, level + 1, target);

    if (r == sim::kNullAddr && state == NodeState::Free) {
        // We split a free node but neither child could satisfy the
        // request (can only happen via racing tasklets outside the
        // allocator mutex, which the callers prevent; restore anyway to
        // keep the structure canonical).
        t.execute(cost::kNodeUpdateInstrs);
        store.set(t, node, NodeState::Free);
    } else if (r != sim::kNullAddr) {
        // Propagate fullness: if both children are now exhausted, mark
        // this node Full so later searches prune the subtree.
        ++stats_.nodesVisited;
        t.execute(cost::kNodeVisitInstrs);
        const NodeState ls = store.get(t, left);
        NodeState rs = NodeState::Free;
        if (ls == NodeState::Allocated || ls == NodeState::Full) {
            ++stats_.nodesVisited;
            t.execute(cost::kNodeVisitInstrs);
            rs = store.get(t, left + 1);
        }
        if ((ls == NodeState::Allocated || ls == NodeState::Full)
            && (rs == NodeState::Allocated || rs == NodeState::Full)) {
            t.execute(cost::kNodeUpdateInstrs);
            store.set(t, node, NodeState::Full);
        }
    }
    return r;
}

template <typename Store>
uint32_t
BuddyTree::freeAt(Store &store, sim::Tasklet &t, uint32_t offset)
{
    // Descend from the root following the child containing `offset`
    // until the node allocated exactly at `offset` is found.
    uint32_t node = 0;
    uint32_t level = 0;
    for (;;) {
        ++stats_.nodesVisited;
        t.execute(cost::kNodeVisitInstrs);
        const NodeState state = store.get(t, node);
        const uint32_t node_off = offsetOf(node, level);
        if (state == NodeState::Allocated) {
            if (node_off != offset)
                return 0; // pointer into the middle of a block
            break;
        }
        if (state == NodeState::Free)
            return 0; // double free / wild pointer
        if (level + 1 >= levels_)
            return 0; // leaf is Split — corrupt pointer
        const uint32_t child_size = blockSize(level + 1);
        const uint32_t left = 2 * node + 1;
        node = (offset - node_off < child_size) ? left : left + 1;
        ++level;
    }

    const uint32_t freed = blockSize(level);
    t.execute(cost::kNodeUpdateInstrs);
    store.set(t, node, NodeState::Free);

    // Merge upward while the buddy is also free.
    while (level > 0) {
        const uint32_t buddy =
            ((node - 1) ^ 1u) + 1; // sibling in heap order
        ++stats_.nodesVisited;
        t.execute(cost::kNodeVisitInstrs);
        if (store.get(t, buddy) != NodeState::Free)
            break;
        const uint32_t parent = (node - 1) / 2;
        t.execute(cost::kNodeUpdateInstrs);
        store.set(t, parent, NodeState::Free);
        node = parent;
        --level;
    }

    // Ancestors that were marked Full can no longer be full: downgrade
    // them to Split. The walk stops at the first non-Full ancestor
    // (nothing above it can be marked Full either, since marking
    // requires both children to be exhausted).
    while (level > 0) {
        const uint32_t parent = (node - 1) / 2;
        ++stats_.nodesVisited;
        t.execute(cost::kNodeVisitInstrs);
        if (store.get(t, parent) != NodeState::Full)
            break;
        t.execute(cost::kNodeUpdateInstrs);
        store.set(t, parent, NodeState::Split);
        node = parent;
        --level;
    }
    return freed;
}

void
BuddyTree::reset(sim::Tasklet &t)
{
    store_.reset(t);
    allocatedBytes_ = 0;
    stats_ = BuddyTreeStats{};
}

sim::MramAddr
BuddyTree::alloc(sim::Tasklet &t, uint32_t size)
{
    // Checked before rounding: above 2^31 a size has no power of two
    // in 32 bits to round up to.
    if (size > heapBytes_) {
        ++stats_.failures;
        return sim::kNullAddr;
    }
    const uint32_t rounded = roundSize(size);
    const uint32_t target = levelFor(rounded);
    const sim::MramAddr r = visitStore(
        store_, [&](auto &store) { return tryAlloc(store, t, 0, 0, target); });
    if (r == sim::kNullAddr) {
        ++stats_.failures;
        return sim::kNullAddr;
    }
    ++stats_.allocs;
    allocatedBytes_ += rounded;
    return r;
}

uint32_t
BuddyTree::free(sim::Tasklet &t, sim::MramAddr addr)
{
    if (addr < heapBase_ || addr >= heapBase_ + heapBytes_)
        return 0;
    const uint32_t offset = addr - heapBase_;
    if (offset % minBlock_ != 0)
        return 0;
    const uint32_t freed = visitStore(
        store_, [&](auto &store) { return freeAt(store, t, offset); });
    if (freed == 0)
        return 0;
    ++stats_.frees;
    PIM_ASSERT(allocatedBytes_ >= freed, "allocated-bytes underflow");
    allocatedBytes_ -= freed;
    return freed;
}

} // namespace pim::alloc

/**
 * @file
 * A flat hash table keyed by MRAM address: the allocators' host-side
 * records (PIM-malloc's live blocks, the straw-man's live requests, a
 * thread cache's span slots) live in one of these instead of in
 * node-based containers.
 *
 * Open addressing with linear probing over one power-of-two array of
 * (key, value) slots; sim::kNullAddr marks an empty slot, so it is never
 * a key and find(kNullAddr) reports it absent. Erasing shifts the rest
 * of the probe chain back over the hole, so there are no tombstones and
 * a lookup never probes past the first empty slot. The array starts
 * empty, doubles before an insert would fill more than 3/4 of it, and
 * clear() keeps it: once the table has grown to a workload's peak, put
 * and erase make no heap allocation, and destroying the table frees one
 * buffer.
 */

#ifndef PIM_ALLOC_ADDR_TABLE_HH
#define PIM_ALLOC_ADDR_TABLE_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/types.hh"
#include "util/logging.hh"

namespace pim::alloc {

/**
 * Fibonacci hash of an address. Block addresses are aligned, so their
 * low bits carry little; the product's upper half mixes every key bit
 * into the bits the table masks.
 */
struct AddrHash
{
    uint64_t
    operator()(sim::MramAddr key) const
    {
        return (static_cast<uint64_t>(key) * 0x9e3779b97f4a7c15ull) >> 32;
    }
};

/**
 * Map from a non-null MRAM address to a small value @p V. @p Hash maps a
 * key to its home slot, modulo the capacity (tests substitute one that
 * forces collisions).
 */
template <typename V, typename Hash = AddrHash>
class AddrTable
{
  public:
    /** Value stored under @p key, or nullptr when absent. The pointer
     *  is valid until the next put or erase. */
    const V *
    find(sim::MramAddr key) const
    {
        const size_t i = locate(key);
        return i == kAbsent ? nullptr : &slots_[i].value;
    }

    /** Store @p value under @p key, inserting it or overwriting it. */
    void
    put(sim::MramAddr key, const V &value)
    {
        PIM_ASSERT(key != sim::kNullAddr, "the null address is not a key");
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        size_t i = home(key);
        while (slots_[i].key != key && slots_[i].key != sim::kNullAddr)
            i = (i + 1) & mask_;
        if (slots_[i].key == sim::kNullAddr) {
            slots_[i].key = key;
            ++size_;
        }
        slots_[i].value = value;
    }

    /** Remove @p key. @return false when it was absent. */
    bool
    erase(sim::MramAddr key)
    {
        size_t hole = locate(key);
        if (hole == kAbsent)
            return false;
        // Backward shift: each later entry of the chain whose home does
        // not lie cyclically in (hole, j] moves into the hole, which then
        // moves to where that entry was.
        for (size_t j = (hole + 1) & mask_; slots_[j].key != sim::kNullAddr;
             j = (j + 1) & mask_) {
            if (((j - home(slots_[j].key)) & mask_)
                >= ((j - hole) & mask_)) {
                slots_[hole] = slots_[j];
                hole = j;
            }
        }
        slots_[hole].key = sim::kNullAddr;
        --size_;
        return true;
    }

    /** Remove every key, keeping the array. */
    void
    clear()
    {
        for (Slot &s : slots_)
            s.key = sim::kNullAddr;
        size_ = 0;
    }

    /** Keys stored. */
    size_t size() const { return size_; }

  private:
    struct Slot
    {
        sim::MramAddr key = sim::kNullAddr;
        V value{};
    };

    static constexpr size_t kAbsent = SIZE_MAX;
    static constexpr size_t kMinSlots = 16;

    size_t home(sim::MramAddr key) const { return Hash{}(key) & mask_; }

    /** Slot holding @p key, or kAbsent. */
    size_t
    locate(sim::MramAddr key) const
    {
        if (key == sim::kNullAddr || size_ == 0)
            return kAbsent;
        for (size_t i = home(key);; i = (i + 1) & mask_) {
            if (slots_[i].key == key)
                return i;
            if (slots_[i].key == sim::kNullAddr)
                return kAbsent;
        }
    }

    /** Double the array (or make the first one) and re-insert. */
    void
    grow()
    {
        std::vector<Slot> old = std::exchange(
            slots_,
            std::vector<Slot>(slots_.empty() ? kMinSlots : 2 * slots_.size()));
        mask_ = slots_.size() - 1;
        for (const Slot &s : old) {
            if (s.key == sim::kNullAddr)
                continue;
            size_t i = home(s.key);
            while (slots_[i].key != sim::kNullAddr)
                i = (i + 1) & mask_;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t size_ = 0;
};

} // namespace pim::alloc

#endif // PIM_ALLOC_ADDR_TABLE_HH

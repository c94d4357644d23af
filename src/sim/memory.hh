/**
 * @file
 * Backing storage for a DPU's 64 MB local DRAM bank (MRAM). It models
 * *storage* only; cycle costs for moving data to and from the bank are
 * charged by the Tasklet DMA interface (Tasklet::dmaRead /
 * Tasklet::dmaWrite). The 64 KB scratchpad (WRAM) keeps no contents: it
 * is modelled by sim::Dpu's reservation budget.
 */

#ifndef PIM_SIM_MEMORY_HH
#define PIM_SIM_MEMORY_HH

#include <cstdint>
#include <cstring>
#include <type_traits>

#include "sim/types.hh"
#include "util/logging.hh"

namespace pim::sim {

/**
 * A flat byte-addressable memory with bounds-checked typed access.
 * It owns one private anonymous mapping of its capacity rounded up to
 * whole host pages, so the kernel zeroes it lazily: materializing
 * thousands of 64 MB DPUs costs address space, not memory or page
 * faults, which is what makes full-system (sample = 0) parallel sweeps
 * tractable.
 */
class FlatMemory
{
  public:
    /** @param bytes capacity; @param name used in error messages. */
    FlatMemory(size_t bytes, const char *name);
    ~FlatMemory();

    FlatMemory(const FlatMemory &) = delete;
    FlatMemory &operator=(const FlatMemory &) = delete;

    /** Capacity in bytes. */
    size_t size() const { return size_; }

    /** Read a trivially-copyable value at @p addr. */
    template <typename T>
    T
    read(MramAddr addr) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(addr, sizeof(T));
        T value;
        std::memcpy(&value, data_ + addr, sizeof(T));
        return value;
    }

    /** Write a trivially-copyable value at @p addr. */
    template <typename T>
    void
    write(MramAddr addr, const T &value)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        checkRange(addr, sizeof(T));
        std::memcpy(data_ + addr, &value, sizeof(T));
    }

    /** Bulk copy out of the memory. */
    void readBytes(MramAddr addr, void *dst, size_t n) const;

    /** Bulk copy into the memory. */
    void writeBytes(MramAddr addr, const void *src, size_t n);

    /** memmove within the memory (used by the CSR shift model). */
    void moveBytes(MramAddr dst, MramAddr src, size_t n);

    /** Zero-fill a range. */
    void fill(MramAddr addr, size_t n, uint8_t value);

    /**
     * Return every touched page to the OS; the memory reads zero again.
     * The mapping, its address and the capacity stay. Used to bound
     * peak memory when thousands of DPUs are simulated and then
     * harvested (the graph update driver's final round, via
     * sim::Dpu::reclaimMemory).
     */
    void reset();

    /** Raw pointer for read-only inspection in tests. */
    const uint8_t *raw() const { return data_; }

  private:
    /** Panic unless [@p addr, @p addr + @p n) lies inside the memory. */
    void
    checkRange(MramAddr addr, size_t n) const
    {
        if (static_cast<size_t>(addr) + n > size_) [[unlikely]]
            outOfRange(addr, n);
    }

    /** checkRange()'s failure path, kept out of every caller. */
    [[noreturn, gnu::cold, gnu::noinline]] void
    outOfRange(MramAddr addr, size_t n) const;

    size_t size_;
    size_t mappedBytes_; ///< size_ in whole pages, at least one page
    uint8_t *data_;
    const char *name_;
};

} // namespace pim::sim

#endif // PIM_SIM_MEMORY_HH

/**
 * @file
 * Factory for the paper's allocator design points, so benchmarks,
 * examples, and workloads can select an allocator by name.
 */

#ifndef PIM_CORE_ALLOCATOR_FACTORY_HH
#define PIM_CORE_ALLOCATOR_FACTORY_HH

#include <memory>
#include <string>

#include "alloc/allocator.hh"
#include "sim/dpu.hh"

namespace pim::core {

/** Every evaluated allocator design point. */
enum class AllocatorKind {
    StrawMan,          ///< buddy_alloc_PIM_DRAM (Section III-B)
    PimMallocSw,       ///< PIM-malloc-SW (Section IV-A)
    PimMallocHwSw,     ///< PIM-malloc-HW/SW (Section IV-B)
    PimMallocSwLazy,   ///< PIM-malloc-SW without pre-population
    PimMallocHwSwLazy, ///< PIM-malloc-HW/SW without pre-population
};

/** All kinds, in presentation order. */
inline constexpr AllocatorKind kAllKinds[] = {
    AllocatorKind::StrawMan,
    AllocatorKind::PimMallocSw,
    AllocatorKind::PimMallocHwSw,
    AllocatorKind::PimMallocSwLazy,
    AllocatorKind::PimMallocHwSwLazy,
};

/** The three design points the paper's headline figures compare. */
inline constexpr AllocatorKind kMainKinds[] = {
    AllocatorKind::StrawMan,
    AllocatorKind::PimMallocSw,
    AllocatorKind::PimMallocHwSw,
};

/** Display name matching the paper's terminology. */
const char *allocatorKindName(AllocatorKind kind);

/** Parse a display or CLI name ("straw-man", "sw", "hwsw", ...). */
AllocatorKind allocatorKindFromName(const std::string &name);

/** Extra knobs applied on top of each kind's paper defaults. */
struct AllocatorOverrides
{
    /** Heap size; 0 keeps the paper default (32 MB). */
    uint32_t heapBytes = 0;
    /** Tasklets the allocator serves. */
    unsigned numTasklets = 16;
    /** SW metadata buffer bytes; 0 keeps the default (2 KB). */
    uint32_t swBufferBytes = 0;
};

/**
 * Build an allocator of @p kind for @p dpu with the paper's default
 * parameters, adjusted by @p overrides.
 */
std::unique_ptr<alloc::Allocator>
makeAllocator(sim::Dpu &dpu, AllocatorKind kind,
              const AllocatorOverrides &overrides = AllocatorOverrides{});

} // namespace pim::core

#endif // PIM_CORE_ALLOCATOR_FACTORY_HH

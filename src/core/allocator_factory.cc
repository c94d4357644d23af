#include "core/allocator_factory.hh"

#include "alloc/pim_malloc.hh"
#include "alloc/straw_man.hh"
#include "util/logging.hh"

namespace pim::core {

const char *
allocatorKindName(AllocatorKind kind)
{
    switch (kind) {
      case AllocatorKind::StrawMan: return "Straw-man";
      case AllocatorKind::PimMallocSw: return "PIM-malloc-SW";
      case AllocatorKind::PimMallocHwSw: return "PIM-malloc-HW/SW";
      case AllocatorKind::PimMallocSwLazy: return "PIM-malloc-SW-lazy";
      case AllocatorKind::PimMallocHwSwLazy: return "PIM-malloc-HW/SW-lazy";
    }
    return "?";
}

AllocatorKind
allocatorKindFromName(const std::string &name)
{
    if (name == "straw-man" || name == "strawman" || name == "Straw-man")
        return AllocatorKind::StrawMan;
    if (name == "sw" || name == "PIM-malloc-SW")
        return AllocatorKind::PimMallocSw;
    if (name == "hwsw" || name == "hw/sw" || name == "PIM-malloc-HW/SW")
        return AllocatorKind::PimMallocHwSw;
    if (name == "sw-lazy" || name == "PIM-malloc-SW-lazy")
        return AllocatorKind::PimMallocSwLazy;
    if (name == "hwsw-lazy" || name == "PIM-malloc-HW/SW-lazy")
        return AllocatorKind::PimMallocHwSwLazy;
    PIM_FATAL("unknown allocator kind '", name, "'");
}

std::unique_ptr<alloc::Allocator>
makeAllocator(sim::Dpu &dpu, AllocatorKind kind,
              const AllocatorOverrides &overrides)
{
    if (kind == AllocatorKind::StrawMan) {
        alloc::StrawManConfig cfg;
        if (overrides.heapBytes)
            cfg.heapBytes = overrides.heapBytes;
        if (overrides.swBufferBytes)
            cfg.swBufferBytes = overrides.swBufferBytes;
        return std::make_unique<alloc::StrawManAllocator>(dpu, cfg);
    }

    alloc::PimMallocConfig cfg;
    cfg.numTasklets = overrides.numTasklets;
    if (overrides.heapBytes)
        cfg.heapBytes = overrides.heapBytes;
    if (overrides.swBufferBytes)
        cfg.swBufferBytes = overrides.swBufferBytes;
    switch (kind) {
      case AllocatorKind::PimMallocSw:
        cfg.metadata = alloc::MetadataMode::SwBuffer;
        break;
      case AllocatorKind::PimMallocHwSw:
        cfg.metadata = alloc::MetadataMode::HwCache;
        break;
      case AllocatorKind::PimMallocSwLazy:
        cfg.metadata = alloc::MetadataMode::SwBuffer;
        cfg.prePopulate = false;
        break;
      case AllocatorKind::PimMallocHwSwLazy:
        cfg.metadata = alloc::MetadataMode::HwCache;
        cfg.prePopulate = false;
        break;
      default:
        PIM_PANIC("unreachable");
    }
    return std::make_unique<alloc::PimMallocAllocator>(dpu, cfg);
}

} // namespace pim::core

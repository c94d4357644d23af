#include "sim/memory.hh"

namespace pim::sim {

FlatMemory::FlatMemory(size_t bytes, const char *name)
    : data_(static_cast<uint8_t *>(std::calloc(bytes ? bytes : 1, 1)),
            &std::free),
      size_(bytes), name_(name)
{
    PIM_ASSERT(data_ != nullptr, name, " allocation of ", bytes,
               " bytes failed");
}

void
FlatMemory::reset()
{
    data_.reset(
        static_cast<uint8_t *>(std::calloc(size_ ? size_ : 1, 1)));
    PIM_ASSERT(data_ != nullptr, name_, " reallocation of ", size_,
               " bytes failed");
}

void
FlatMemory::outOfRange(MramAddr addr, size_t n) const
{
    PIM_PANIC(name_, " access out of range: addr=", addr, " len=", n,
              " size=", size_);
}

void
FlatMemory::readBytes(MramAddr addr, void *dst, size_t n) const
{
    checkRange(addr, n);
    std::memcpy(dst, data_.get() + addr, n);
}

void
FlatMemory::writeBytes(MramAddr addr, const void *src, size_t n)
{
    checkRange(addr, n);
    std::memcpy(data_.get() + addr, src, n);
}

void
FlatMemory::moveBytes(MramAddr dst, MramAddr src, size_t n)
{
    checkRange(dst, n);
    checkRange(src, n);
    std::memmove(data_.get() + dst, data_.get() + src, n);
}

void
FlatMemory::fill(MramAddr addr, size_t n, uint8_t value)
{
    checkRange(addr, n);
    std::memset(data_.get() + addr, value, n);
}

} // namespace pim::sim

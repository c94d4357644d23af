#include "sim/memory.hh"

#include <sys/mman.h>
#include <unistd.h>

namespace pim::sim {

namespace {

/** @p bytes rounded up to whole host pages; a 0-byte memory maps one. */
size_t
wholePages(size_t bytes)
{
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return bytes == 0 ? page : (bytes + page - 1) / page * page;
}

} // namespace

FlatMemory::FlatMemory(size_t bytes, const char *name)
    : size_(bytes), mappedBytes_(wholePages(bytes)),
      data_(static_cast<uint8_t *>(
          mmap(nullptr, mappedBytes_, PROT_READ | PROT_WRITE,
               MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0))),
      name_(name)
{
    if (data_ == MAP_FAILED)
        PIM_PANIC(name, " mapping of ", bytes, " bytes failed");
}

FlatMemory::~FlatMemory()
{
    munmap(data_, mappedBytes_);
}

void
FlatMemory::reset()
{
    if (madvise(data_, mappedBytes_, MADV_DONTNEED) != 0)
        PIM_PANIC(name_, " reset of ", size_, " bytes failed");
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
    std::memcpy(dst, data_ + addr, n);
}

void
FlatMemory::writeBytes(MramAddr addr, const void *src, size_t n)
{
    checkRange(addr, n);
    std::memcpy(data_ + addr, src, n);
}

void
FlatMemory::moveBytes(MramAddr dst, MramAddr src, size_t n)
{
    checkRange(dst, n);
    checkRange(src, n);
    std::memmove(data_ + dst, data_ + src, n);
}

void
FlatMemory::fill(MramAddr addr, size_t n, uint8_t value)
{
    checkRange(addr, n);
    std::memset(data_ + addr, value, n);
}

} // namespace pim::sim

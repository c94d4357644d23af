/**
 * @file
 * Counts the host pages of a FlatMemory that the kernel holds resident,
 * for tests that check a bank costs address space, not memory. mincore
 * also reports a page that was only read (it maps the shared zero
 * page), so call this before reading the memory.
 */

#ifndef PIM_TESTS_RESIDENT_PAGES_HH
#define PIM_TESTS_RESIDENT_PAGES_HH

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "sim/memory.hh"

namespace pim::test {

/** Resident pages that lie wholly inside [raw(), raw() + size()). */
inline size_t
residentPagesInside(const sim::FlatMemory &m)
{
    const uintptr_t page = static_cast<uintptr_t>(sysconf(_SC_PAGESIZE));
    const uintptr_t begin = reinterpret_cast<uintptr_t>(m.raw());
    const uintptr_t first = (begin + page - 1) / page * page;
    const uintptr_t last = (begin + m.size()) / page * page;
    if (last <= first)
        return 0;
    std::vector<unsigned char> vec((last - first) / page);
    EXPECT_EQ(mincore(reinterpret_cast<void *>(first), last - first,
                      vec.data()),
              0);
    size_t resident = 0;
    for (unsigned char v : vec)
        resident += v & 1;
    return resident;
}

} // namespace pim::test

#endif // PIM_TESTS_RESIDENT_PAGES_HH

/**
 * @file
 * Counts global operator new calls, for tests that check a path makes no
 * host heap allocation. This header replaces the global allocation
 * functions, so include it from exactly one source file of a test
 * binary. The counter is per thread; a Dpu::run's fibers run on the
 * launching thread, so a launch from the test thread is counted whole.
 */

#ifndef PIM_TESTS_HOST_ALLOCS_HH
#define PIM_TESTS_HOST_ALLOCS_HH

#include <cstdint>
#include <cstdlib>
#include <new>

namespace pim::test {

/** While set, global operator new counts into tl_allocs (this thread). */
inline thread_local bool tl_countAllocs = false;
inline thread_local uint64_t tl_allocs = 0;

/** Global operator new calls that @p fn makes on this thread. */
template <typename Fn>
uint64_t
countAllocs(Fn &&fn)
{
    tl_allocs = 0;
    tl_countAllocs = true;
    fn();
    tl_countAllocs = false;
    return tl_allocs;
}

} // namespace pim::test

// Replaced global allocation functions: malloc/free underneath, so the
// sanitizers' own malloc interception still sees every block. They stay
// out of line: inlined into a caller, gcc would see a malloc'd block
// reach operator delete (or a new'd one reach free) and warn.
[[gnu::noinline]] void *
operator new(std::size_t bytes)
{
    if (pim::test::tl_countAllocs)
        ++pim::test::tl_allocs;
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

[[gnu::noinline]] void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

#endif // PIM_TESTS_HOST_ALLOCS_HH

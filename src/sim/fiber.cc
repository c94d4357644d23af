/**
 * @file
 * Backend-independent Fiber pieces; the context-switch machinery itself
 * lives in fiber_asm.cc / fiber_asm_*.S or fiber_ucontext.cc (one of
 * which is compiled in, selected by CMake).
 */

#include "sim/fiber.hh"

#include <sys/mman.h>
#include <unistd.h>

#include "util/logging.hh"

namespace pim::sim {

namespace {

size_t
pageBytes()
{
    static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
    return page;
}

} // namespace

Fiber::Fiber(std::function<void()> body, size_t stack_bytes)
    : body_(std::move(body))
{
    PIM_ASSERT(body_ != nullptr, "fiber requires a body");
    PIM_ASSERT(stack_bytes >= 16 * 1024, "fiber stack too small");
    const size_t page = pageBytes();
    stackBytes_ = (stack_bytes + page - 1) / page * page;
    void *map = mmap(nullptr, page + stackBytes_, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED)
        PIM_PANIC("cannot map a ", stackBytes_, "-byte fiber stack");
    if (mprotect(map, page, PROT_NONE) != 0)
        PIM_PANIC("cannot protect the fiber stack's guard page");
    stack_ = static_cast<uint8_t *>(map) + page;
}

Fiber::~Fiber()
{
    const size_t page = pageBytes();
    munmap(stack_ - page, page + stackBytes_);
}

void
Fiber::rearm(std::function<void()> body)
{
    PIM_ASSERT(finished_ || !started_, "cannot rearm a suspended fiber");
    PIM_ASSERT(body != nullptr, "fiber requires a body");
    body_ = std::move(body);
    started_ = false;
    finished_ = false;
}

} // namespace pim::sim

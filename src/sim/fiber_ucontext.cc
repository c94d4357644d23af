/**
 * @file
 * Portable ucontext fiber backend. Each switch goes through glibc
 * swapcontext, which performs two rt_sigprocmask syscalls per direction;
 * the asm backend avoids that entirely. This backend is kept as the
 * fallback for platforms without an asm port and as the reference
 * implementation for differential testing (CI builds one leg with it).
 */

#include "sim/fiber.hh"

#include "util/logging.hh"

#if !defined(PIM_SIM_FIBER_UCONTEXT)
#error "fiber_ucontext.cc compiled without PIM_SIM_FIBER_UCONTEXT"
#endif

namespace pim::sim {

namespace {

/** The fiber currently executing on this thread, if any. */
thread_local Fiber *tl_current = nullptr;

} // namespace

const char *
Fiber::backendName()
{
    return "ucontext";
}

void
Fiber::trampoline(unsigned hi, unsigned lo)
{
    auto *self = reinterpret_cast<Fiber *>(
        (static_cast<uintptr_t>(hi) << 32) | static_cast<uintptr_t>(lo));
    self->run();
}

void
Fiber::run()
{
    body_();
    finished_ = true;
    // Return to the resumer; the fiber must never fall off the end of
    // its context, so swap explicitly.
    Fiber *self = this;
    tl_current = nullptr;
    swapcontext(&self->context_, &self->caller_);
    PIM_PANIC("resumed a finished fiber");
}

void
Fiber::ensureStarted()
{
    if (started_)
        return;
    started_ = true;
    if (getcontext(&context_) != 0)
        PIM_PANIC("getcontext failed");
    context_.uc_stack.ss_sp = stack_;
    context_.uc_stack.ss_size = stackBytes_;
    context_.uc_link = nullptr;
    const auto ptr = reinterpret_cast<uintptr_t>(this);
    makecontext(&context_, reinterpret_cast<void (*)()>(&trampoline), 2,
                static_cast<unsigned>(ptr >> 32),
                static_cast<unsigned>(ptr & 0xffffffffu));
}

void
Fiber::resume()
{
    PIM_ASSERT(!finished_, "cannot resume a finished fiber");
    ensureStarted();
    Fiber *previous = tl_current;
    tl_current = this;
    swapcontext(&caller_, &context_);
    tl_current = previous;
}

void
Fiber::switchTo(Fiber &next)
{
    PIM_ASSERT(tl_current == this, "switchTo outside the running fiber");
    PIM_ASSERT(!next.finished_, "cannot switch to a finished fiber");
    // Hand the resume linkage to `next`: its eventual yield or finish
    // returns to whoever resume()d this chain, not to this fiber.
    next.caller_ = caller_;
    next.ensureStarted();
    tl_current = &next;
    swapcontext(&context_, &next.context_);
    // tl_current was restored by whoever switched back into us.
}

void
Fiber::yield()
{
    Fiber *self = tl_current;
    PIM_ASSERT(self != nullptr, "Fiber::yield outside a fiber");
    swapcontext(&self->context_, &self->caller_);
}

} // namespace pim::sim

/**
 * @file
 * Hand-rolled assembly fiber backend (Linux x86-64 / aarch64). The
 * actual switch is pim_fiber_jump in fiber_asm_<arch>.S: save the
 * callee-saved registers, publish the stack pointer, adopt the target's,
 * restore, return — no syscalls, unlike glibc swapcontext which takes
 * two rt_sigprocmask round trips per switch.
 *
 * First entry into a fiber works by seeding the private stack with a
 * frame whose return address is pim_fiber_trampoline; the trampoline
 * receives the Fiber* (passed through the jump's arg register) and calls
 * pim_fiber_entry, which runs the body.
 *
 * Under AddressSanitizer every switch is bracketed with
 * __sanitizer_start_switch_fiber / __sanitizer_finish_switch_fiber so
 * ASan retargets its fake-stack bookkeeping to the new stack. The
 * invariant: whoever jumps INTO a fiber first records where that
 * fiber's yield/finish should switch back to (resume() computes the
 * current stack's bounds; switchTo() propagates its own caller bounds),
 * so arrival sites never have to guess.
 */

#include "sim/fiber.hh"

#include "util/logging.hh"

#if defined(PIM_SIM_FIBER_UCONTEXT)
#error "fiber_asm.cc compiled with PIM_SIM_FIBER_UCONTEXT"
#endif

#if !defined(__x86_64__) && !defined(__aarch64__)
#error "no asm fiber port for this architecture; build with -DPIM_SIM_FIBER_UCONTEXT=ON"
#endif

#if PIM_SIM_FIBER_ASAN
#include <pthread.h>
#include <sanitizer/common_interface_defs.h>
#endif

extern "C" {

/**
 * Switch contexts: store the current stack pointer (pointing at a frame
 * of saved callee-saved registers) to *save_sp, adopt restore_sp, and
 * return @p arg in the resumed context.
 */
void *pim_fiber_jump(void **save_sp, void *restore_sp, void *arg);

/** First-entry thunk whose address seeds a fresh fiber stack. */
void pim_fiber_trampoline();

} // extern "C"

namespace pim::sim {

namespace {

/** The fiber currently executing on this thread, if any. */
thread_local Fiber *tl_current = nullptr;

/** Bytes pim_fiber_jump pops when resuming a context: the callee-saved
 *  register frame plus the return address (see fiber_asm_<arch>.S). */
#if defined(__x86_64__)
constexpr size_t kFrameBytes = 6 * 8 + 8;
#elif defined(__aarch64__)
constexpr size_t kFrameBytes = 160;
#endif

} // namespace

const char *
Fiber::backendName()
{
#if defined(__x86_64__)
    return "asm-x86_64";
#else
    return "asm-aarch64";
#endif
}

void
Fiber::ensureStarted()
{
    if (started_)
        return;
    started_ = true;
    const auto base = reinterpret_cast<uintptr_t>(stack_);
    /*
     * x86-64: the ABI fixes rsp = 8 (mod 16) at a function's first
     * instruction, so a saved frame's base must land the trampoline's
     * `call` on a 16-byte boundary: align the stack top to 16 and place
     * the 56-byte frame directly below it. aarch64 keeps sp 16-aligned
     * always, and kFrameBytes = 160 preserves that.
     */
    uintptr_t top = (base + stackBytes_) & ~static_cast<uintptr_t>(15);
    auto *slots = reinterpret_cast<void **>(top - kFrameBytes);
    for (size_t i = 0; i < kFrameBytes / sizeof(void *); ++i)
        slots[i] = nullptr;
#if defined(__x86_64__)
    // Slot 6 is the frame's return address (after r15..rbp).
    slots[6] = reinterpret_cast<void *>(&pim_fiber_trampoline);
#else
    // Slot 11 is the x30 (link register) save slot at offset 88.
    slots[11] = reinterpret_cast<void *>(&pim_fiber_trampoline);
#endif
    sp_ = slots;
}

#if PIM_SIM_FIBER_ASAN
/**
 * Record, on the fiber about to be resumed, the bounds of the stack the
 * resuming code is executing on (a fiber's private stack when nested,
 * else the host thread's stack), so the fiber's yield/finish can
 * annotate the switch back.
 */
void
Fiber::noteResumerStack()
{
    if (Fiber *cur = tl_current) {
        callerStackBottom_ = cur->stack_;
        callerStackSize_ = cur->stackBytes_;
        return;
    }
    thread_local const void *thread_bottom = nullptr;
    thread_local size_t thread_size = 0;
    if (thread_bottom == nullptr) {
        pthread_attr_t attr;
        if (pthread_getattr_np(pthread_self(), &attr) != 0)
            PIM_PANIC("pthread_getattr_np failed");
        void *addr = nullptr;
        size_t sz = 0;
        pthread_attr_getstack(&attr, &addr, &sz);
        pthread_attr_destroy(&attr);
        thread_bottom = addr;
        thread_size = sz;
    }
    callerStackBottom_ = thread_bottom;
    callerStackSize_ = thread_size;
}
#endif // PIM_SIM_FIBER_ASAN

void
Fiber::run()
{
#if PIM_SIM_FIBER_ASAN
    // Complete the switch the resumer started (no fake stack yet: this
    // context has never left).
    __sanitizer_finish_switch_fiber(nullptr, nullptr, nullptr);
#endif
    body_();
    finished_ = true;
    tl_current = nullptr;
#if PIM_SIM_FIBER_ASAN
    // Leaving this fiber for good: nullptr destroys its fake stack.
    __sanitizer_start_switch_fiber(nullptr, callerStackBottom_,
                                   callerStackSize_);
#endif
    void *dead_sp;
    pim_fiber_jump(&dead_sp, callerSp_, nullptr);
    PIM_PANIC("resumed a finished fiber");
}

void
Fiber::resume()
{
    PIM_ASSERT(!finished_, "cannot resume a finished fiber");
    ensureStarted();
#if PIM_SIM_FIBER_ASAN
    noteResumerStack();
#endif
    Fiber *previous = tl_current;
    tl_current = this;
#if PIM_SIM_FIBER_ASAN
    void *fake = nullptr;
    __sanitizer_start_switch_fiber(&fake, stack_, stackBytes_);
#endif
    pim_fiber_jump(&callerSp_, sp_, this);
#if PIM_SIM_FIBER_ASAN
    __sanitizer_finish_switch_fiber(fake, nullptr, nullptr);
#endif
    tl_current = previous;
}

void
Fiber::switchTo(Fiber &next)
{
    PIM_ASSERT(tl_current == this, "switchTo outside the running fiber");
    PIM_ASSERT(!next.finished_, "cannot switch to a finished fiber");
    // Hand the resume linkage to `next`: its eventual yield or finish
    // returns to whoever resume()d this chain, not to this fiber.
    next.callerSp_ = callerSp_;
#if PIM_SIM_FIBER_ASAN
    next.callerStackBottom_ = callerStackBottom_;
    next.callerStackSize_ = callerStackSize_;
#endif
    next.ensureStarted();
    tl_current = &next;
#if PIM_SIM_FIBER_ASAN
    __sanitizer_start_switch_fiber(&asanFakeStack_, next.stack_,
                                   next.stackBytes_);
#endif
    pim_fiber_jump(&sp_, next.sp_, &next);
#if PIM_SIM_FIBER_ASAN
    __sanitizer_finish_switch_fiber(asanFakeStack_, nullptr, nullptr);
#endif
    // tl_current was restored by whoever switched back into us.
}

void
Fiber::yield()
{
    Fiber *self = tl_current;
    PIM_ASSERT(self != nullptr, "Fiber::yield outside a fiber");
#if PIM_SIM_FIBER_ASAN
    __sanitizer_start_switch_fiber(&self->asanFakeStack_,
                                   self->callerStackBottom_,
                                   self->callerStackSize_);
#endif
    pim_fiber_jump(&self->sp_, self->callerSp_, nullptr);
#if PIM_SIM_FIBER_ASAN
    __sanitizer_finish_switch_fiber(self->asanFakeStack_, nullptr, nullptr);
#endif
}

} // namespace pim::sim

extern "C" void
pim_fiber_entry(void *fiber)
{
    static_cast<pim::sim::Fiber *>(fiber)->run();
}

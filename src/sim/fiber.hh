/**
 * @file
 * Cooperative user-level fibers. Each simulated tasklet runs on its own
 * fiber so allocator and workload code can be written as straight-line
 * C++ while the scheduler interleaves tasklets deterministically at
 * cycle-charge boundaries.
 *
 * Two interchangeable backends implement the same API:
 *
 *  - asm (default on Linux x86-64/aarch64): a hand-rolled register-only
 *    context switch (boost::fcontext-style). It saves exactly the System
 *    V callee-saved state and switches stacks in ~a dozen instructions,
 *    with no syscalls. See fiber_asm.cc / fiber_asm_*.S.
 *
 *  - ucontext (CMake -DPIM_SIM_FIBER_UCONTEXT=ON, and the automatic
 *    fallback on other platforms): portable POSIX swapcontext. Each
 *    switch costs two rt_sigprocmask syscalls in glibc, roughly 20x the
 *    asm backend. Retained for differential testing and portability.
 *    See fiber_ucontext.cc.
 *
 * Scheduling behaviour is backend-independent: the determinism suite
 * asserts identical simulation results under both (CI builds one leg
 * with each).
 */

#ifndef PIM_SIM_FIBER_HH
#define PIM_SIM_FIBER_HH

#if defined(PIM_SIM_FIBER_UCONTEXT)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <functional>

/*
 * AddressSanitizer needs explicit fiber-switch annotations for custom
 * stack switching (__sanitizer_start/finish_switch_fiber). The detection
 * macro lives here so every translation unit including this header
 * agrees on the Fiber class layout (sanitizer flags are applied
 * globally via the pim_sanitizers interface target).
 */
#if defined(__SANITIZE_ADDRESS__)
#define PIM_SIM_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PIM_SIM_FIBER_ASAN 1
#endif
#endif
#ifndef PIM_SIM_FIBER_ASAN
#define PIM_SIM_FIBER_ASAN 0
#endif

#if !defined(PIM_SIM_FIBER_UCONTEXT)
namespace pim::sim {
class Fiber;
}
/** Assembly-backend entry point; runs the fiber body (fiber_asm.cc). */
extern "C" void pim_fiber_entry(void *fiber);
#endif

namespace pim::sim {

/**
 * A single cooperatively-scheduled execution context.
 *
 * The owner (scheduler) calls resume(); the fiber body calls
 * Fiber::yield() to suspend back to the owner. When the body returns the
 * fiber becomes finished and further resume() calls are invalid until
 * rearm() gives it a new body.
 */
class Fiber
{
  public:
    /**
     * @param body   function executed on the fiber's own stack.
     * @param stack_bytes size of the private stack (default 256 KiB,
     *        enough for the deepest buddy-tree recursion plus workloads),
     *        rounded up to whole pages.
     */
    explicit Fiber(std::function<void()> body,
                   size_t stack_bytes = 256 * 1024);

    /** Unmaps the stack and its guard page. */
    ~Fiber();

    Fiber(const Fiber &) = delete;
    Fiber &operator=(const Fiber &) = delete;

    /**
     * Give a finished or never-started fiber a new @p body; the next
     * resume() or switchTo() runs it from the top of the same stack.
     * A body that fits std::function's inline buffer makes this
     * allocation-free, which is how the scheduler reuses its fibers
     * across launches.
     */
    void rearm(std::function<void()> body);

    /** Switch from the caller into the fiber. @pre !finished(). */
    void resume();

    /**
     * Suspend the currently running fiber back to its resumer.
     * @pre called from inside a fiber body.
     */
    static void yield();

    /**
     * Suspend the currently running fiber (*this) and transfer control
     * directly to @p next — one context switch instead of the two a
     * yield()-then-resume() round trip through the owner would cost.
     * The resume linkage is propagated: when @p next (or any fiber it
     * in turn switches to) yields or finishes, control returns to the
     * frame that resume()d this chain.
     *
     * @pre called from inside this fiber's body; !next.finished().
     */
    void switchTo(Fiber &next);

    /** True once the body function has returned. */
    bool finished() const { return finished_; }

    /** Name of the compiled-in context-switch backend. */
    static const char *backendName();

  private:
    void run();

    std::function<void()> body_;
    /**
     * Lowest usable byte of the private stack: its own private,
     * anonymous, no-reserve mapping, so only the pages a body actually
     * touches become resident. One PROT_NONE guard page sits directly
     * below, so an overflow faults at the overflowing frame instead of
     * corrupting a neighbour. The scheduler keeps its fibers, and with
     * them their stacks, in a per-thread pool across launches.
     */
    uint8_t *stack_ = nullptr;
    size_t stackBytes_ = 0;
    bool started_ = false;
    bool finished_ = false;

#if defined(PIM_SIM_FIBER_UCONTEXT)
    static void trampoline(unsigned hi, unsigned lo);

    /** Prepare context_ to enter run() on the private stack. */
    void ensureStarted();

    ucontext_t context_;
    ucontext_t caller_;
#else
    friend void ::pim_fiber_entry(void *);

    /** Seed the initial stack frame so the first jump enters run(). */
    void ensureStarted();

    void *sp_ = nullptr;       ///< fiber's saved stack pointer
    void *callerSp_ = nullptr; ///< resumer's saved stack pointer
#endif

#if PIM_SIM_FIBER_ASAN
    void noteResumerStack();

    void *asanFakeStack_ = nullptr;
    const void *callerStackBottom_ = nullptr;
    size_t callerStackSize_ = 0;
#endif
};

} // namespace pim::sim

#endif // PIM_SIM_FIBER_HH

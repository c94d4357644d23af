/**
 * @file
 * Unit tests for the fiber primitive, run against whichever backend is
 * compiled in (asm or ucontext; CI builds a leg with each): basic
 * resume/yield, nesting, direct switchTo chains, stack-heavy frames,
 * and a many-fiber stress loop, and rearm() reusing a stack. The death
 * tests cover reuse of a finished fiber and a stack overflow into the
 * guard page.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/fiber.hh"

using pim::sim::Fiber;

/*
 * ASan and TSan install their own SEGV handler, which reports the fault
 * and aborts instead of letting the signal kill the process.
 */
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SANITIZER_CATCHES_SEGV 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SANITIZER_CATCHES_SEGV 1
#endif
#endif

TEST(Fiber, RunsToCompletionOnFirstResume)
{
    int ran = 0;
    Fiber f([&] { ran = 1; });
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(ran, 1);
}

TEST(Fiber, YieldSuspendsAndResumes)
{
    std::vector<int> order;
    Fiber f([&] {
        order.push_back(1);
        Fiber::yield();
        order.push_back(3);
    });
    f.resume();
    order.push_back(2);
    EXPECT_FALSE(f.finished());
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Fiber, ManyYields)
{
    int count = 0;
    Fiber f([&] {
        for (int i = 0; i < 100; ++i) {
            ++count;
            Fiber::yield();
        }
    });
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(f.finished());
        f.resume();
    }
    f.resume(); // final resume lets the body return
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(count, 100);
}

TEST(Fiber, NestedFibers)
{
    std::vector<int> order;
    Fiber inner([&] {
        order.push_back(2);
        Fiber::yield();
        order.push_back(4);
    });
    Fiber outer([&] {
        order.push_back(1);
        inner.resume(); // runs inner until its yield
        order.push_back(3);
        inner.resume();
        order.push_back(5);
    });
    outer.resume();
    EXPECT_TRUE(outer.finished());
    EXPECT_TRUE(inner.finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, LocalStateSurvivesYield)
{
    int observed = 0;
    Fiber f([&] {
        int local = 7;
        Fiber::yield();
        local += 35;
        observed = local;
    });
    f.resume();
    f.resume();
    EXPECT_EQ(observed, 42);
}

TEST(Fiber, BackendNameIsKnown)
{
    const std::string name = Fiber::backendName();
    EXPECT_TRUE(name == "asm-x86_64" || name == "asm-aarch64"
                || name == "ucontext")
        << name;
}

TEST(Fiber, SwitchToTransfersControlDirectly)
{
    // a runs, switches straight into b without returning to main; b's
    // yield lands back in main's resume (the propagated caller), not
    // in a.
    std::vector<int> order;
    std::unique_ptr<Fiber> a, b;
    b = std::make_unique<Fiber>([&] {
        order.push_back(2);
        Fiber::yield(); // -> main (caller linkage inherited from a)
        order.push_back(5);
    });
    a = std::make_unique<Fiber>([&] {
        order.push_back(1);
        a->switchTo(*b);
        order.push_back(4);
    });
    a->resume(); // runs a then b until b's yield
    order.push_back(3);
    EXPECT_FALSE(a->finished());
    EXPECT_FALSE(b->finished());
    a->resume(); // a continues after its switchTo and finishes
    EXPECT_TRUE(a->finished());
    b->resume(); // b continues after its yield and finishes
    EXPECT_TRUE(b->finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(Fiber, SwitchToChainFinishReturnsToResumer)
{
    // a -> b -> c; c finishes: control must come back to main's
    // resume(a), with a and b still suspended and resumable.
    std::vector<int> order;
    std::unique_ptr<Fiber> a, b, c;
    c = std::make_unique<Fiber>([&] { order.push_back(3); });
    b = std::make_unique<Fiber>([&] {
        order.push_back(2);
        b->switchTo(*c);
        order.push_back(6);
    });
    a = std::make_unique<Fiber>([&] {
        order.push_back(1);
        a->switchTo(*b);
        order.push_back(5);
    });
    a->resume();
    order.push_back(4);
    EXPECT_TRUE(c->finished());
    EXPECT_FALSE(a->finished());
    EXPECT_FALSE(b->finished());
    a->resume();
    EXPECT_TRUE(a->finished());
    b->resume();
    EXPECT_TRUE(b->finished());
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(Fiber, SwitchToUnstartedFiberSeedsIt)
{
    int ran = 0;
    std::unique_ptr<Fiber> a, b;
    b = std::make_unique<Fiber>([&] { ran = 1; });
    a = std::make_unique<Fiber>([&] {
        a->switchTo(*b); // b has never run: switchTo must start it
    });
    a->resume();
    EXPECT_TRUE(b->finished());
    EXPECT_EQ(ran, 1);
    a->resume();
    EXPECT_TRUE(a->finished());
}

TEST(Fiber, LargeFrameNearStackLimit)
{
    // A frame using most of a small custom stack: catches off-by-a-page
    // seeding bugs and verifies the advertised capacity is usable.
    constexpr size_t kStack = 64 * 1024;
    constexpr size_t kFrame = 40 * 1024;
    uint64_t sum = 0;
    Fiber f(
        [&] {
            volatile uint8_t frame[kFrame];
            for (size_t i = 0; i < kFrame; ++i)
                frame[i] = static_cast<uint8_t>(i * 31 + 7);
            Fiber::yield(); // frame must survive a switch
            uint64_t s = 0;
            for (size_t i = 0; i < kFrame; ++i)
                s += frame[i];
            sum = s;
        },
        kStack);
    f.resume();
    f.resume();
    EXPECT_TRUE(f.finished());
    uint64_t expect = 0;
    for (size_t i = 0; i < kFrame; ++i)
        expect += static_cast<uint8_t>(i * 31 + 7);
    EXPECT_EQ(sum, expect);
}

TEST(Fiber, ManyFibersStress)
{
    // Hundreds of concurrently-live fibers with interleaved yields:
    // stresses seeding, switching, and per-fiber state isolation.
    constexpr int kFibers = 300;
    constexpr int kRounds = 17;
    std::vector<std::unique_ptr<Fiber>> fibers;
    std::vector<int> counts(kFibers, 0);
    fibers.reserve(kFibers);
    for (int i = 0; i < kFibers; ++i) {
        fibers.push_back(std::make_unique<Fiber>(
            [&counts, i] {
                // `local` checks that fiber-private state survives all
                // the interleaved switches.
                int local = 0;
                for (int r = 0; r < kRounds; ++r) {
                    local += i + r;
                    ++counts[i];
                    Fiber::yield();
                }
                EXPECT_EQ(local,
                          kRounds * i + kRounds * (kRounds - 1) / 2);
            },
            32 * 1024));
    }
    for (int r = 0; r <= kRounds; ++r)
        for (auto &f : fibers)
            if (!f->finished())
                f->resume();
    for (int i = 0; i < kFibers; ++i) {
        EXPECT_TRUE(fibers[i]->finished()) << i;
        EXPECT_EQ(counts[i], kRounds) << i;
    }
}

TEST(Fiber, RearmRunsANewBody)
{
    std::vector<int> order;
    Fiber f([&] { order.push_back(1); });
    f.rearm([&] { order.push_back(2); }); // never started: rearm is legal
    f.resume();
    EXPECT_TRUE(f.finished());
    f.rearm([&] {
        order.push_back(3);
        Fiber::yield();
        order.push_back(4);
    });
    EXPECT_FALSE(f.finished());
    f.resume();
    f.resume();
    EXPECT_TRUE(f.finished());
    EXPECT_EQ(order, (std::vector<int>{2, 3, 4}));
}

namespace {

/** Recurse @p depth levels, each holding 1 KiB of real stack. */
[[gnu::noinline]] unsigned
burnStack(unsigned depth)
{
    // alloca, not a local array: ASan may move locals to its fake
    // stack, but an alloca'd block is always on the running stack.
    auto *frame = static_cast<volatile uint8_t *>(__builtin_alloca(1024));
    for (size_t i = 0; i < 1024; i += 64)
        frame[i] = static_cast<uint8_t>(depth);
    if (depth == 0)
        return frame[0];
    return burnStack(depth - 1) + frame[512];
}

} // namespace

TEST(FiberDeath, StackOverflowHitsGuardPage)
{
    // About 70 KiB of frames on a 64 KiB stack: the first write past the
    // stack lands on its guard page and faults right there.
    auto overflow = [] {
        Fiber f([] { burnStack(70); }, 64 * 1024);
        f.resume();
    };
#if defined(SANITIZER_CATCHES_SEGV)
    EXPECT_DEATH(overflow(), "");
#else
    EXPECT_EXIT(overflow(), testing::KilledBySignal(SIGSEGV), "");
#endif
}

TEST(FiberDeath, ResumeFinishedPanics)
{
    Fiber f([] {});
    f.resume();
    EXPECT_DEATH(f.resume(), "finished");
}

TEST(FiberDeath, YieldOutsideFiberPanics)
{
    EXPECT_DEATH(Fiber::yield(), "outside");
}

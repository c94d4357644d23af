/**
 * @file
 * A seeded malloc/free churn shared by the allocator golden and
 * no-allocation tests. Each tasklet runs its own stream: a growth phase
 * (70% mallocs), a steady phase (50%), then every live block freed in
 * random order. Sizes cover the eight size classes evenly, and one draw
 * in nine asks for 2-8 KB, PIM-malloc's bypass path. Each free picks a
 * random live block, so thread-cache spans fill, drain and go back to
 * the buddy.
 */

#ifndef PIM_TESTS_ALLOC_CHURN_HH
#define PIM_TESTS_ALLOC_CHURN_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc/allocator.hh"
#include "sim/tasklet.hh"
#include "util/rng.hh"

namespace pim::test {

/**
 * Run one tasklet's churn on @p a. @p live holds the tasklet's live
 * blocks while it runs; every address malloc returns (kNullAddr
 * included) is appended to @p got. Neither vector allocates once it has
 * grown to the churn's size.
 */
inline void
churn(alloc::Allocator &a, sim::Tasklet &t, uint64_t seed,
      std::vector<sim::MramAddr> &live, std::vector<sim::MramAddr> &got)
{
    constexpr unsigned kGrowOps = 600;
    constexpr unsigned kSteadyOps = 600;
    util::Rng rng(seed * 1000 + t.id());
    auto free_one = [&] {
        const size_t k = rng.uniformInt(live.size());
        EXPECT_TRUE(a.free(t, live[k])) << "tasklet " << t.id();
        live[k] = live.back();
        live.pop_back();
    };
    live.clear();
    for (unsigned i = 0; i < kGrowOps + kSteadyOps; ++i) {
        if (!live.empty() && !rng.bernoulli(i < kGrowOps ? 0.7 : 0.5)) {
            free_one();
            continue;
        }
        const auto cls = static_cast<unsigned>(rng.uniformInt(9));
        const auto size = static_cast<uint32_t>(
            cls == 8 ? rng.uniformRange(2049, 8192)
                     : rng.uniformRange((8u << cls) + 1, 16u << cls));
        const sim::MramAddr p = a.malloc(t, size);
        got.push_back(p);
        if (p != sim::kNullAddr)
            live.push_back(p);
    }
    while (!live.empty())
        free_one();
}

/** Fold @p p into an FNV-1a hash, one byte at a time, low byte first. */
inline void
hashAddr(uint64_t &h, sim::MramAddr p)
{
    for (int i = 0; i < 4; ++i) {
        h ^= (p >> (8 * i)) & 0xff;
        h *= 1099511628211ull;
    }
}

/** FNV-1a offset basis, the start value for hashAddr. */
inline constexpr uint64_t kFnvBasis = 1469598103934665603ull;

} // namespace pim::test

#endif // PIM_TESTS_ALLOC_CHURN_HH

/**
 * @file
 * Differential tests for alloc::AddrTable, the allocators' flat address
 * table, against a std::unordered_map oracle: forced collisions, probe
 * chains that wrap past the end of the array, erases from the middle of
 * a chain, growth, clear(), and the null address.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "alloc/addr_table.hh"
#include "util/rng.hh"

using namespace pim;
using alloc::AddrTable;

namespace {

/**
 * A key's home slot is its low bits, so keys that share their low 16
 * bits collide at every capacity up to 64K slots, and keys whose low
 * bits are all ones home at the last slot and wrap.
 */
struct LowBitsHash
{
    uint64_t operator()(sim::MramAddr key) const { return key; }
};

/** A table and its oracle, checked against each other after each op. */
template <typename Hash>
class Differential
{
  public:
    void
    put(sim::MramAddr key, uint32_t value)
    {
        table_.put(key, value);
        oracle_[key] = value;
    }

    void
    erase(sim::MramAddr key)
    {
        EXPECT_EQ(table_.erase(key), oracle_.erase(key) == 1) << key;
    }

    void
    clear()
    {
        table_.clear();
        oracle_.clear();
    }

    /** Each key in @p keys looks up as in the oracle. */
    void
    check(const std::vector<sim::MramAddr> &keys) const
    {
        ASSERT_EQ(table_.size(), oracle_.size());
        for (const sim::MramAddr key : keys) {
            const uint32_t *v = table_.find(key);
            const auto it = oracle_.find(key);
            ASSERT_EQ(v != nullptr, it != oracle_.end()) << key;
            if (v) {
                ASSERT_EQ(*v, it->second) << key;
            }
        }
    }

  private:
    AddrTable<uint32_t, Hash> table_;
    std::unordered_map<sim::MramAddr, uint32_t> oracle_;
};

/**
 * A seeded mix of puts (new keys and overwrites) and erases over @p keys,
 * with a clear() halfway, checked against the oracle after every
 * operation: the key just used each time, every key every 64 operations.
 * About two thirds of the keys are live at a time, so the table grows
 * from 16 slots several times over.
 */
template <typename Hash>
void
runDifferential(const std::vector<sim::MramAddr> &keys, uint64_t seed)
{
    Differential<Hash> d;
    util::Rng rng(seed);
    const size_t ops = 8 * keys.size();
    for (size_t i = 0; i < ops; ++i) {
        if (i == ops / 2)
            d.clear();
        const sim::MramAddr key = keys[rng.uniformInt(keys.size())];
        if (rng.bernoulli(0.35))
            d.erase(key);
        else
            d.put(key, static_cast<uint32_t>(rng.next()));
        if (i % 64 == 0 || i + 1 == ops)
            d.check(keys);
        else
            d.check({key});
    }
}

} // namespace

TEST(AddrTable, EmptyTable)
{
    AddrTable<uint32_t> t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_EQ(t.find(0x1000), nullptr);
    EXPECT_FALSE(t.erase(0x1000));
    t.clear();
    EXPECT_EQ(t.size(), 0u);
}

TEST(AddrTable, NullAddressIsNeverAKey)
{
    AddrTable<uint32_t> t;
    // kNullAddr marks an empty slot: with every slot empty, a probe for
    // it must still report it absent.
    EXPECT_EQ(t.find(sim::kNullAddr), nullptr);
    t.put(0x40, 7);
    EXPECT_EQ(t.find(sim::kNullAddr), nullptr);
    EXPECT_FALSE(t.erase(sim::kNullAddr));
    EXPECT_EQ(t.size(), 1u);
    ASSERT_NE(t.find(0x40), nullptr);
    EXPECT_EQ(*t.find(0x40), 7u);
}

TEST(AddrTable, CollidingAndWrappingKeysMatchOracle)
{
    // Four clusters: keys whose low 16 bits are 0 (home slot 0), all
    // ones (the last slot, so the chain wraps to slot 0 and runs into
    // the first cluster) or 0xfffe, and keys below 2^31 at random.
    std::vector<sim::MramAddr> keys;
    util::Rng rng(42);
    for (uint32_t j = 1; j <= 500; ++j) {
        keys.push_back(j << 16);
        keys.push_back((j << 16) | 0xffff);
        keys.push_back((j << 16) | 0xfffe);
        keys.push_back(static_cast<uint32_t>(rng.next() >> 33));
    }
    runDifferential<LowBitsHash>(keys, 1);
}

TEST(AddrTable, BlockAddressesMatchOracle)
{
    // Aligned addresses, as the allocators use them, under the default
    // hash.
    std::vector<sim::MramAddr> keys;
    for (uint32_t j = 0; j < 3000; ++j)
        keys.push_back(0x2000 + 16 * j * 7);
    runDifferential<alloc::AddrHash>(keys, 2);
}

TEST(AddrTable, EraseFromMiddleOfChainKeepsTheRestReachable)
{
    // Eight keys with one home slot form one chain; erasing any one of
    // them must leave the other seven found, whichever it was.
    for (uint32_t victim = 0; victim < 8; ++victim) {
        AddrTable<uint32_t, LowBitsHash> t;
        for (uint32_t j = 0; j < 8; ++j)
            t.put((j + 1) << 16, j);
        ASSERT_TRUE(t.erase((victim + 1) << 16));
        for (uint32_t j = 0; j < 8; ++j) {
            const uint32_t *v = t.find((j + 1) << 16);
            if (j == victim) {
                EXPECT_EQ(v, nullptr);
            } else {
                ASSERT_NE(v, nullptr) << "victim " << victim << " key " << j;
                EXPECT_EQ(*v, j);
            }
        }
    }
}

/**
 * @file
 * Unit tests for the deterministic RNG: reproducibility, range
 * contracts, and distribution sanity.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/rng.hh"

using pim::util::Rng;

TEST(Rng, SameSeedSameStream)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformIntRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.uniformInt(17), 17u);
}

TEST(Rng, UniformIntBoundOneAlwaysZero)
{
    Rng r(7);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(r.uniformInt(1), 0u);
}

TEST(Rng, UniformRangeInclusive)
{
    Rng r(9);
    std::set<uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint64_t v = r.uniformRange(5, 8);
        EXPECT_GE(v, 5u);
        EXPECT_LE(v, 8u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 4u); // every value hit
}

TEST(Rng, UniformRealInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 10000; ++i) {
        const double x = r.uniformReal();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(Rng, UniformRealMeanNearHalf)
{
    Rng r(13);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniformReal();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng r(17);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += r.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMoments)
{
    Rng r(19);
    double sum = 0, sq = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const double x = r.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.02);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, LogNormalMedian)
{
    Rng r(23);
    const int n = 100001;
    std::vector<double> xs(n);
    for (auto &x : xs)
        x = r.logNormal(2.0, 0.5);
    std::sort(xs.begin(), xs.end());
    // Median of lognormal(mu, sigma) is exp(mu).
    EXPECT_NEAR(xs[n / 2], std::exp(2.0), 0.2);
}

TEST(Rng, ExponentialMean)
{
    Rng r(29);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.exponential(4.0);
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(Rng, ZipfInRange)
{
    Rng r(31);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(r.zipf(100, 0.8), 100u);
}

TEST(Rng, ZipfIsSkewed)
{
    Rng r(37);
    const int n = 100000;
    int low = 0; // rank 0..9
    for (int i = 0; i < n; ++i)
        low += r.zipf(1000, 1.1) < 10;
    // Under uniform the first 10 of 1000 ranks would get ~1%.
    EXPECT_GT(static_cast<double>(low) / n, 0.20);
}

TEST(Rng, ZipfSingleElement)
{
    Rng r(41);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.zipf(1, 1.0), 0u);
}

TEST(Rng, ShuffleIsPermutation)
{
    Rng r(43);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    r.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleEmptyAndSingle)
{
    Rng r(47);
    std::vector<int> empty;
    r.shuffle(empty);
    EXPECT_TRUE(empty.empty());
    std::vector<int> one{42};
    r.shuffle(one);
    EXPECT_EQ(one[0], 42);
}

/**
 * @file
 * Unit tests for Percentile and geomean.
 */

#include <gtest/gtest.h>

#include "util/stats.hh"

using namespace pim::util;

TEST(Percentile, EmptyReturnsZero)
{
    Percentile p;
    EXPECT_EQ(p.p50(), 0.0);
    EXPECT_EQ(p.mean(), 0.0);
}

TEST(Percentile, SingleSample)
{
    Percentile p;
    p.add(7.0);
    EXPECT_DOUBLE_EQ(p.p50(), 7.0);
    EXPECT_DOUBLE_EQ(p.p99(), 7.0);
    EXPECT_DOUBLE_EQ(p.percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 7.0);
}

TEST(Percentile, KnownQuartiles)
{
    Percentile p;
    for (int i = 1; i <= 101; ++i)
        p.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(p.p50(), 51.0);
    EXPECT_DOUBLE_EQ(p.percentile(0), 1.0);
    EXPECT_DOUBLE_EQ(p.percentile(100), 101.0);
    EXPECT_DOUBLE_EQ(p.percentile(25), 26.0);
}

TEST(Percentile, InterpolatesBetweenRanks)
{
    Percentile p;
    p.add(0.0);
    p.add(10.0);
    EXPECT_DOUBLE_EQ(p.p50(), 5.0);
    EXPECT_DOUBLE_EQ(p.percentile(25), 2.5);
}

TEST(Percentile, QueryThenAddThenQuery)
{
    Percentile p;
    p.add(1.0);
    p.add(3.0);
    EXPECT_DOUBLE_EQ(p.p50(), 2.0);
    p.add(100.0);
    EXPECT_DOUBLE_EQ(p.p50(), 3.0); // re-sorts after mutation
}

TEST(Percentile, MeanAndCount)
{
    Percentile p;
    for (double x : {1.0, 2.0, 3.0})
        p.add(x);
    EXPECT_EQ(p.count(), 3u);
    EXPECT_DOUBLE_EQ(p.mean(), 2.0);
}

TEST(Geomean, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({4.0, 9.0}), 6.0, 1e-9);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-9);
}

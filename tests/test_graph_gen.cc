/**
 * @file
 * Tests for the synthetic graph generator and the update-stream split.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "workloads/graph/graph_gen.hh"
#include "workloads/graph/update_driver.hh"

using namespace pim::workloads::graph;

namespace {

GraphGenConfig
smallCfg()
{
    GraphGenConfig cfg;
    cfg.numNodes = 1000;
    cfg.numEdges = 5000;
    cfg.seed = 3;
    return cfg;
}

} // namespace

TEST(GraphGen, ExactEdgeCount)
{
    const auto g = generateGraph(smallCfg());
    EXPECT_EQ(g.numNodes, 1000u);
    EXPECT_EQ(g.edges.size(), 5000u);
}

TEST(GraphGen, Deterministic)
{
    const auto a = generateGraph(smallCfg());
    const auto b = generateGraph(smallCfg());
    ASSERT_EQ(a.edges.size(), b.edges.size());
    for (size_t i = 0; i < a.edges.size(); ++i) {
        EXPECT_EQ(a.edges[i].src, b.edges[i].src);
        EXPECT_EQ(a.edges[i].dst, b.edges[i].dst);
    }
    // Golden FNV-1a hash of the edge stream: a generator change that
    // moves a single endpoint shows here.
    uint64_t h = 0xcbf29ce484222325ull;
    for (const auto &e : a.edges) {
        for (const uint32_t v : {e.src, e.dst}) {
            h ^= v;
            h *= 0x100000001b3ull;
        }
    }
    EXPECT_EQ(h, 3690420123093927251ull);
}

TEST(GraphGen, NodesInRangeNoSelfLoops)
{
    const auto g = generateGraph(smallCfg());
    for (const auto &e : g.edges) {
        EXPECT_LT(e.src, g.numNodes);
        EXPECT_LT(e.dst, g.numNodes);
        EXPECT_NE(e.src, e.dst);
    }
}

TEST(GraphGen, DegreeDistributionIsSkewed)
{
    const auto g = generateGraph(smallCfg());
    std::map<uint32_t, uint32_t> degree;
    for (const auto &e : g.edges)
        ++degree[e.src];
    uint32_t max_degree = 0;
    for (const auto &[n, d] : degree)
        max_degree = std::max(max_degree, d);
    const double mean = 5000.0 / 1000.0;
    // Power-law: the hottest node far exceeds the mean degree.
    EXPECT_GT(max_degree, 10 * mean);
}

TEST(GraphGen, DegreeCapRespected)
{
    GraphGenConfig cfg = smallCfg();
    cfg.maxDegree = 16;
    const auto g = generateGraph(cfg);
    std::map<uint32_t, uint32_t> degree;
    for (const auto &e : g.edges)
        ++degree[e.src];
    for (const auto &[n, d] : degree)
        EXPECT_LE(d, 16u);
}

TEST(SplitForUpdate, PaperRatioOneToTwo)
{
    const auto g = generateGraph(smallCfg());
    const auto w = splitForUpdate(g, 1.0 / 3.0, 7);
    EXPECT_EQ(w.updateEdges.size(), g.edges.size() / 3);
    EXPECT_EQ(w.baseEdges.size() + w.updateEdges.size(), g.edges.size());
}

TEST(SplitForUpdate, PartitionIsExact)
{
    const auto g = generateGraph(smallCfg());
    const auto w = splitForUpdate(g, 0.25, 9);
    // Every original edge appears exactly once across the two sets.
    auto key = [](const Edge &e) {
        return (static_cast<uint64_t>(e.src) << 32) | e.dst;
    };
    std::multiset<uint64_t> original, split;
    for (const auto &e : g.edges)
        original.insert(key(e));
    for (const auto &e : w.baseEdges)
        split.insert(key(e));
    for (const auto &e : w.updateEdges)
        split.insert(key(e));
    EXPECT_EQ(original, split);
}

TEST(SplitForUpdate, SeedChangesSelection)
{
    const auto g = generateGraph(smallCfg());
    const auto a = splitForUpdate(g, 0.3, 1);
    const auto b = splitForUpdate(g, 0.3, 2);
    bool differs = false;
    for (size_t i = 0; i < a.updateEdges.size() && !differs; ++i) {
        differs = a.updateEdges[i].src != b.updateEdges[i].src
            || a.updateEdges[i].dst != b.updateEdges[i].dst;
    }
    EXPECT_TRUE(differs);
}

TEST(ShardOf, UniformAndStable)
{
    std::vector<uint32_t> counts(16, 0);
    for (uint32_t u = 0; u < 16000; ++u) {
        const unsigned s = shardOf(u, 16);
        ASSERT_LT(s, 16u);
        EXPECT_EQ(s, shardOf(u, 16)); // stable
        ++counts[s];
    }
    for (uint32_t c : counts) {
        EXPECT_GT(c, 600u); // roughly uniform (1000 +/- 40%)
        EXPECT_LT(c, 1400u);
    }
}

#include "workloads/graph/graph_gen.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pim::workloads::graph {

GraphDataset
generateGraph(const GraphGenConfig &cfg)
{
    PIM_ASSERT(cfg.numNodes > 1, "graph needs at least two nodes");
    util::Rng rng(cfg.seed);

    GraphDataset g;
    g.numNodes = cfg.numNodes;
    g.edges.reserve(cfg.numEdges);

    // Chung-Lu style: source nodes drawn from a Zipf distribution over a
    // random permutation of node ids (so heavy nodes are scattered),
    // destinations uniform.
    std::vector<uint32_t> perm(cfg.numNodes);
    for (uint32_t i = 0; i < cfg.numNodes; ++i)
        perm[i] = i;
    rng.shuffle(perm);

    const util::ZipfSampler zipf(cfg.numNodes, cfg.skew);
    std::vector<uint32_t> degree(cfg.numNodes, 0);
    uint64_t produced = 0;
    uint64_t attempts = 0;
    const uint64_t max_attempts = cfg.numEdges * 4 + 1000;
    while (produced < cfg.numEdges && attempts < max_attempts) {
        ++attempts;
        const uint32_t src = perm[zipf(rng)];
        if (degree[src] >= cfg.maxDegree)
            continue;
        uint32_t dst =
            static_cast<uint32_t>(rng.uniformInt(cfg.numNodes));
        if (dst == src)
            dst = (dst + 1) % cfg.numNodes;
        g.edges.push_back({src, dst});
        ++degree[src];
        ++produced;
    }
    PIM_ASSERT(produced == cfg.numEdges,
               "degree cap too tight to generate requested edges");
    return g;
}

UpdateWorkload
splitForUpdate(const GraphDataset &g, double new_fraction, uint64_t seed)
{
    PIM_ASSERT(new_fraction > 0.0 && new_fraction < 1.0,
               "new_fraction must be in (0,1)");
    util::Rng rng(seed);

    std::vector<uint32_t> idx(g.edges.size());
    for (uint32_t i = 0; i < idx.size(); ++i)
        idx[i] = i;
    rng.shuffle(idx);

    const size_t new_count = static_cast<size_t>(
        static_cast<double>(g.edges.size()) * new_fraction);
    UpdateWorkload w;
    w.numNodes = g.numNodes;
    w.updateEdges.reserve(new_count);
    w.baseEdges.reserve(g.edges.size() - new_count);
    for (size_t i = 0; i < idx.size(); ++i) {
        if (i < new_count)
            w.updateEdges.push_back(g.edges[idx[i]]);
        else
            w.baseEdges.push_back(g.edges[idx[i]]);
    }
    return w;
}

} // namespace pim::workloads::graph

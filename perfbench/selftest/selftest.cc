/**
 * @file
 * Self-tests of the benchmark's own code: the workload generators are
 * deterministic in the seed (and the seed matters), and the percentile
 * helper the benchmark reports with matches a sorted oracle. Exits
 * non-zero on the first failure. The metric-name check against
 * BENCHMARK.json is run.py --self-test.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "util/rng.hh"
#include "workloads.hh"
#include "workloads/graph/graph_gen.hh"

using namespace perfbench;

namespace {

int g_failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::cerr << "FAIL: " << what << "\n";
        ++g_failures;
    }
}

template <typename Make>
void
checkGenerator(Make make, const char *name)
{
    for (const uint64_t seed : {1ull, 7ull, 123456789ull}) {
        check(make(seed) == make(seed), name);
        check(!(make(seed) == make(seed + 1)), name);
    }
}

/** Linear interpolation between closest ranks of the sorted sample. */
double
oracle(std::vector<double> xs, double p)
{
    std::sort(xs.begin(), xs.end());
    const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<size_t>(std::floor(rank));
    const auto hi = static_cast<size_t>(std::ceil(rank));
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

} // namespace

int
main()
{
    checkGenerator(makeAllocMixInputs, "alloc-mix inputs not a function of "
                                       "the seed");
    checkGenerator(makeQueueStormInputs, "queue-storm inputs not a function "
                                         "of the seed");
    checkGenerator(makeGraphIngestInputs, "graph-ingest inputs not a "
                                          "function of the seed");
    checkGenerator(makeServingCotenantInputs, "serving-cotenant inputs not "
                                              "a function of the seed");

    // The graph configs are inputs only through the generator, so the
    // generator itself must be deterministic in them.
    const ServingCotenantInputs sc = makeServingCotenantInputs(3);
    const auto g1 = pim::workloads::graph::generateGraph(sc.replicas[0].graph.gen);
    const auto g2 = pim::workloads::graph::generateGraph(sc.replicas[0].graph.gen);
    bool same = g1.edges.size() == g2.edges.size();
    for (size_t i = 0; same && i < g1.edges.size(); ++i)
        same = g1.edges[i].src == g2.edges[i].src
            && g1.edges[i].dst == g2.edges[i].dst;
    check(same, "generateGraph not deterministic in its config");
    check(g1.edges.size() == sc.replicas[0].graph.gen.numEdges,
          "generateGraph edge count differs from the config");
    const auto split = pim::workloads::graph::splitForUpdate(
        g1, 1.0 / 3.0, sc.replicas[0].graph.splitSeed);
    check(split.updateEdges.size() == expectedUpdateEdges(sc.replicas[0].graph),
          "expectedUpdateEdges differs from the split");

    pim::util::Rng rng(99);
    for (const size_t n : {1u, 2u, 3u, 10u, 241u, 1000u}) {
        std::vector<double> xs(n);
        for (double &x : xs)
            x = rng.uniformReal() * 1e3;
        for (const double p : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
            const double got = percentile(xs, p);
            const double want = oracle(xs, p);
            check(std::fabs(got - want) <= 1e-9 * std::max(1.0, want),
                  "percentile differs from the sorted oracle");
        }
    }
    check(percentile({}, 50.0) == 0.0, "percentile of nothing is not 0");
    check(percentile({3.0, 1.0, 2.0}, 50.0) == 2.0, "odd median");
    check(percentile({4.0, 1.0, 2.0, 3.0}, 50.0) == 2.5, "even median");

    if (g_failures != 0) {
        std::cerr << g_failures << " self-test check(s) failed\n";
        return 1;
    }
    std::cout << "perfbench self-tests passed\n";
    return 0;
}

/**
 * @file
 * Reproduces Fig 11: characterization of PIM-malloc-SW across the
 * paper's workloads — (a) the share of pimMalloc() requests serviced by
 * the frontend thread cache vs the buddy backend, and (b) the share of
 * aggregate pimMalloc() latency attributable to each level.
 */

#include <iostream>
#include <vector>

#include "alloc/pim_malloc.hh"
#include "core/pim_system.hh"

#include "sim/dpu.hh"
#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/table.hh"
#include "workloads/graph/update_driver.hh"
#include "workloads/llm/kv_cache.hh"
#include "workloads/llm/llm_config.hh"

using namespace pim;
using namespace pim::workloads;

namespace {

struct Row
{
    std::string name;
    double frontendServiced;
    double backendServiced; // includes bypass
    double frontendCycles;
    double backendCycles;
};

Row
fromStats(std::string name, const alloc::AllocStats &st)
{
    Row r;
    r.name = std::move(name);
    r.frontendServiced =
        st.servicedFraction(alloc::ServiceLevel::Frontend);
    r.backendServiced = 1.0 - r.frontendServiced;
    r.frontendCycles = st.cyclesFraction(alloc::ServiceLevel::Frontend);
    r.backendCycles = 1.0 - r.frontendCycles;
    return r;
}

Row
graphRow(graph::StructureKind structure, const char *name,
         const pim::util::BenchKnobs &knobs, const trace::TraceProcess &run)
{
    graph::GraphUpdateConfig cfg;
    cfg.structure = structure;
    cfg.allocator = core::AllocatorKind::PimMallocSw;
    cfg.numDpus = knobs.dpus;
    cfg.sampleDpus = knobs.sample;
    cfg.gen.numNodes = 24000;
    cfg.gen.numEdges = 120000;
    cfg.simThreads = knobs.threads;
    cfg.recorder = run.recorder;
    cfg.metrics = run.metrics;
    const auto res = graph::runGraphUpdate(cfg);
    return fromStats(name, res.allocStats);
}

Row
attentionRow()
{
    // LLM decode: per-DPU KV slices grow in 512 B blocks while a batch
    // of requests decodes (Section V's attention kernel pattern).
    core::PimSystem sys(core::singleDpuConfig());
    sim::Dpu &dpu = sys.dpu(0);
    alloc::PimMallocConfig cfg;
    cfg.numTasklets = 16;
    alloc::PimMallocAllocator a(dpu, cfg);
    llm::KvCacheManager kv(a, 512);
    const llm::LlmModelConfig model;
    const uint64_t per_token = model.kvBytesPerTokenPerDpu(512);
    dpu.run(1, [&](sim::Tasklet &t) { a.init(t); });
    dpu.run(16, [&](sim::Tasklet &t) {
        // Each tasklet serves four requests decoding 64 tokens.
        for (unsigned req = 0; req < 4; ++req) {
            for (unsigned tok = 0; tok < 64; ++tok)
                kv.appendBytes(t, t.id() * 4 + req, per_token);
        }
    });
    return fromStats("Attention (LLM decode)", a.stats());
}

} // namespace

int
main(int argc, char **argv)
{
    // Shared knobs (the attention row is single-DPU, so --tasklets does
    // not apply); --trace/--occupancy cover the two graph-update runs.
    util::Cli cli(argc, argv,
                  "dpus,sample,threads,trace,occupancy,metrics");
    util::BenchKnobs defaults;
    defaults.dpus = 64;
    defaults.sample = 2;
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli, defaults);

    trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
    const Row rows[] = {
        graphRow(graph::StructureKind::LinkedList, "Array of linked list",
                 knobs, obs.add("Array of linked list")),
        graphRow(graph::StructureKind::VarArray, "Variable sized array",
                 knobs, obs.add("Variable sized array")),
        attentionRow(),
    };

    util::Table serviced("Fig 11(a): proportion of pimMalloc() serviced "
                         "at each level");
    serviced.setHeader({"Workload", "Frontend (thread cache) %",
                        "Backend (buddy) %"});
    for (const auto &r : rows) {
        serviced.addRow({r.name,
                         util::Table::num(r.frontendServiced * 100, 1),
                         util::Table::num(r.backendServiced * 100, 1)});
    }
    serviced.print(std::cout);
    std::cout << "\n";

    util::Table cycles("Fig 11(b): total pimMalloc() latency breakdown");
    cycles.setHeader({"Workload", "Frontend (thread cache) %",
                      "Backend (buddy) %"});
    for (const auto &r : rows) {
        cycles.addRow({r.name,
                       util::Table::num(r.frontendCycles * 100, 1),
                       util::Table::num(r.backendCycles * 100, 1)});
    }
    cycles.print(std::cout);
    std::cout << "\nExpected shape: ~90%+ of requests hit the frontend "
                 "(paper: 93% average) while the backend dominates "
                 "aggregate latency (paper: 68%).\n";

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath))
        return 1;
    return 0;
}

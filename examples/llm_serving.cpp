/**
 * @file
 * Domain example #2 — LLM attention offload (the paper's case study 2).
 *
 * Serves a stream of Llama-2 7B requests whose KV caches live in PIM
 * memory, comparing KV-cache allocation schemes: static worst-case
 * reservation vs dynamic growth with a selectable allocator. Prints
 * throughput and TPOT percentiles plus the Fig 4(b) batch-capacity
 * comparison.
 *
 * Run:  ./llm_serving [--allocator=sw|hwsw|straw-man|static]
 *                     [--requests=100] [--rate=10]
 *                     [--disaggregate] [--prefill-frac=0.25]
 *
 * With --disaggregate the trace runs on the ServingEngine's
 * rank-partitioned prefill/decode pipeline instead of the lockstep
 * loop: prefill launches target a rank subset, decode attention runs
 * on the complement, and KV blocks ship double-buffered over the bus.
 */

#include <iostream>
#include <optional>

#include "util/cli.hh"
#include "util/table.hh"
#include "workloads/llm/kv_cache.hh"
#include "workloads/llm/serving_engine.hh"
#include "workloads/llm/serving_sim.hh"

using namespace pim;
using namespace pim::workloads::llm;

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "allocator,requests,rate,disaggregate,prefill-frac");

    ServingScheme scheme{std::nullopt};
    const std::string name = cli.get("allocator", "hwsw");
    if (name != "static")
        scheme.allocator = core::allocatorKindFromName(name);

    ServingEngineConfig ecfg;
    ecfg.base.numRequests =
        static_cast<unsigned>(cli.getCount("requests", 100, 1));
    ecfg.base.arrivalRatePerSec = cli.getDouble("rate", 10.0);
    const bool disagg = cli.getBool("disaggregate", false);
    ecfg.mode = disagg ? ServingMode::Disaggregated
                       : ServingMode::Lockstep;
    ecfg.prefillRankFraction = cli.getDouble("prefill-frac", 0.25);
    const ServingConfig &cfg = ecfg.base;

    const auto r = ServingEngine(scheme, ecfg).run();

    util::Table out(std::string("LLM serving with ") + scheme.name()
                    + (disagg ? " (disaggregated prefill/decode)" : "")
                    + " KV-cache management");
    out.setHeader({"Metric", "Value"});
    out.addRow({"Requests", util::Table::num(uint64_t{cfg.numRequests})});
    out.addRow({"Throughput (tokens/s)",
                util::Table::num(r.throughputTokensPerSec, 0)});
    out.addRow({"TPOT p50 (ms)", util::Table::num(r.tpotP50Ms, 1)});
    out.addRow({"TPOT p99 (ms)", util::Table::num(r.tpotP99Ms, 1)});
    out.addRow({"Makespan (s)", util::Table::num(r.makespanSec, 2)});
    out.addRow({"Batch limit", util::Table::num(uint64_t{r.maxBatchLimit})});
    out.addRow({"Peak batch",
                util::Table::num(uint64_t{r.peakBatchObserved})});
    if (scheme.allocator) {
        out.addRow({"Calibrated alloc latency (us/block)",
                    util::Table::num(r.allocSecPerBlock * 1e6, 1)});
    }
    if (disagg) {
        out.addRow({"Prefill / decode ranks",
                    util::Table::num(uint64_t{r.prefillRanks}) + " / "
                        + util::Table::num(uint64_t{r.decodeRanks})});
        out.addRow({"Prefill waves",
                    util::Table::num(uint64_t{r.prefillWaves})});
        out.addRow({"KV shipped (MB)",
                    util::Table::num(
                        static_cast<double>(r.kvShippedBytes) / 1e6, 1)});
        out.addRow({"Overlap hidden (s)",
                    util::Table::num(r.overlapSeconds, 2)});
    }
    out.print(std::cout);

    // Fig 4(b) context: what batch sizes does each strategy admit?
    const auto cap = measureBatchCapacity(cfg.model, cfg.lengths,
                                          cfg.numDpus, 3);
    std::cout << "\nBatch capacity (ShareGPT-like lengths): static "
              << cap.staticMaxBatch << " vs dynamic "
              << cap.dynamicMaxBatch << "\n";
    return 0;
}

/**
 * @file
 * Reproduces Fig 4(b): maximum LLM batch size achievable under static
 * (PAISE-style worst-case reservation) vs dynamic (PIM-malloc) KV-cache
 * allocation, on a 512-DPU system with Llama-2 7B and ShareGPT-like
 * request lengths. This capacity study is what feeds the serving
 * simulator's `maxBatchLimit` bound (Fig 18).
 */

#include <iostream>

#include "telemetry/export.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/llm/kv_cache.hh"
#include "workloads/llm/llm_config.hh"

using namespace pim;
using namespace pim::workloads::llm;

int
main(int argc, char **argv)
{
    // The capacity probe runs one simulated DPU; of the shared knobs
    // only --dpus (KV shard width) and --json apply (unknown flags
    // stay fatal). --metrics is accepted for knob uniformity but the
    // probe never touches a CommandQueue, so there is nothing to meter.
    util::Cli cli(argc, argv, "dpus,json,seed,metrics");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);
    const auto seed = static_cast<uint64_t>(cli.getInt("seed", 3));

    const auto r = measureBatchCapacity(LlmModelConfig{},
                                        RequestLengthConfig{},
                                        knobs.dpus, seed);
    const double ratio = static_cast<double>(r.dynamicMaxBatch)
        / static_cast<double>(r.staticMaxBatch);

    util::Table table("Fig 4(b): maximum batch size, static vs dynamic "
                      "KV-cache allocation (" + std::to_string(knobs.dpus)
                      + " DPUs, Llama-2 7B)");
    table.setHeader({"Allocation", "Max batch size", "Bytes/request"});
    table.addRow({"Static", util::Table::num(uint64_t{r.staticMaxBatch}),
                  util::Table::num(r.staticReserveBytesPerRequest)});
    table.addRow({"Dynamic", util::Table::num(uint64_t{r.dynamicMaxBatch}),
                  util::Table::num(r.meanActualBytesPerRequest, 0)});
    table.print(std::cout);

    std::cout << "\nDynamic/static batch ratio: "
              << util::Table::num(ratio, 2)
              << "x (paper's figure shows ~3-4x)\n";

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("dpus").value(knobs.dpus);
            j.key("seed").value(seed);
            j.key("heap_bytes").value(r.heapBytes);
            j.key("static_max_batch").value(r.staticMaxBatch);
            j.key("dynamic_max_batch").value(r.dynamicMaxBatch);
            j.key("static_reserve_bytes_per_request")
                .value(r.staticReserveBytesPerRequest);
            j.key("mean_actual_bytes_per_request")
                .value(r.meanActualBytesPerRequest);
            j.key("dynamic_static_ratio").value(ratio);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fig04_batch_size", nullptr, fields))
            return 1;
        std::cout << "\nJSON written to " << knobs.jsonPath << "\n";
    }
    return 0;
}

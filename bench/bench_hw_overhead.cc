/**
 * @file
 * Reproduces Section VI-F: area, power, and timing overheads of the
 * hardware buddy cache (CACTI-calibrated CAM model at a 32 nm logic
 * node, scaled 10x denser->DRAM area and 3x slower delay), plus a
 * capacity sweep matching the Fig 16 design points.
 */

#include <iostream>

#include "sim/area_model.hh"
#include "telemetry/export.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"

using namespace pim;
using namespace pim::sim;

int
main(int argc, char **argv)
{
    // Analytic model: no system knobs apply, but the shared flag set is
    // accepted so scripted sweeps can drive every bench identically.
    util::Cli cli(argc, argv, util::benchKnobNames());
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);

    AreaModel model;

    util::Table table("Section VI-F: buddy cache hardware overheads "
                      "(DRAM-process scaled)");
    table.setHeader({"Cache size", "Entries", "Area (mm^2)", "Power (mW)",
                     "Access (ns)", "PIM cycles"});
    for (unsigned bytes : {16u, 32u, 64u, 128u, 256u}) {
        BuddyCacheConfig cfg;
        cfg.entries = bytes / 4;
        const auto o = model.estimate(cfg);
        table.addRow({std::to_string(bytes) + " B",
                      util::Table::num(uint64_t{cfg.entries}),
                      util::Table::num(o.areaMm2, 4),
                      util::Table::num(o.powerMw, 2),
                      util::Table::num(o.accessNs, 2),
                      util::Table::num(o.cyclesAt350Mhz, 2)});
    }
    table.print(std::cout);
    std::cout << "\nPaper (64 B default): 0.019 mm^2, 5 mW, < 1 PIM core "
                 "cycle.\n";

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("table");
            table.writeJson(j);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "hw_overhead", nullptr, fields))
            return 1;
    }
    return 0;
}

/**
 * @file
 * Domain example #3 — exploring the allocator design space (Table I).
 *
 * Evaluates where allocator metadata should live (host vs PIM) and
 * which processor should run the buddy algorithm (host vs PIM cores)
 * for a configurable system size, reproducing the reasoning behind the
 * paper's choice of PIM-Metadata/PIM-Executed.
 *
 * Run:  ./design_space [--dpus=512] [--allocs=128] [--size=32]
 *                      [--overlap] [--trace=out.json] [--occupancy]
 *
 * --overlap additionally replays each pseudo-program on the async
 * command-queue runtime, pipelining rounds at rank granularity.
 * --trace / --occupancy imply --overlap: the replays are captured as
 * one Chrome/Perfetto process per strategy, and/or summarized as
 * per-lane busy fractions.
 */

#include <iostream>
#include <vector>

#include "core/design_space.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pim;
using namespace pim::core;

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv, "dpus,allocs,size,overlap,trace,occupancy");
    // The shared-knob subset (dpus/trace/occupancy) parses through
    // BenchKnobs so the trace knobs behave exactly like the benches'.
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);

    DesignSpaceParams p;
    p.numDpus = knobs.dpus;
    p.allocsPerDpu = static_cast<unsigned>(cli.getCount("allocs", 128, 1));
    p.allocSize = static_cast<uint32_t>(cli.getCount("size", 32, 1));

    util::Table out("Design space at " + std::to_string(p.numDpus)
                    + " PIM cores, " + std::to_string(p.allocsPerDpu)
                    + " x " + std::to_string(p.allocSize)
                    + " B allocations per core");
    out.setHeader({"Strategy", "Total (s)", "Compute (s)", "Transfer (s)",
                   "Transfer %"});
    DesignStrategy best = DesignStrategy::PimMetaPimExec;
    double best_total = 1e30;
    for (auto s : kAllStrategies) {
        const auto r = evalStrategy(s, p);
        if (r.totalSeconds() < best_total) {
            best_total = r.totalSeconds();
            best = s;
        }
        out.addRow({designStrategyName(s),
                    util::Table::num(r.totalSeconds(), 4),
                    util::Table::num(r.computeSeconds, 4),
                    util::Table::num(r.transferSeconds, 4),
                    util::Table::num(r.transferFraction() * 100, 1)});
    }
    out.print(std::cout);
    std::cout << "\nFastest strategy: " << designStrategyName(best)
              << " (the paper selects PIM-Metadata/PIM-Executed as the "
                 "foundation of PIM-malloc)\n";

    if (cli.getBool("overlap", false) || knobs.wantsTrace()) {
        trace::ObserverSet obs(knobs.wantsTrace(), /*metrics=*/false);
        util::Table ov("Async command queue: rank-pipelined overlap");
        ov.setHeader({"Strategy", "Serial (s)", "Overlapped (s)",
                      "Hidden (s)"});
        for (const auto s : kAllStrategies) {
            const auto serial = evalStrategy(s, p);
            DesignSpaceParams po = p;
            po.recorder = obs.add(designStrategyName(s)).recorder;
            const auto async =
                evalStrategy(s, po, ExecutionMode::Overlapped);
            ov.addRow({designStrategyName(s),
                       util::Table::num(serial.totalSeconds(), 4),
                       util::Table::num(async.totalSeconds(), 4),
                       util::Table::num(async.overlapSavedSeconds(), 4)});
        }
        ov.print(std::cout);

        if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                                /*print_metrics=*/false, knobs.tracePath,
                                "Overlapped occupancy: "))
            return 1;
    }
    return 0;
}

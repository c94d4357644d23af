/**
 * @file
 * Reproduces Fig 6: (a) PIM memory allocation latency of the four
 * Table I design strategies as the number of PIM cores grows from 1 to
 * 512 (each core issuing 128 x 32 B allocations), and (b) the
 * transfer-vs-compute latency breakdown at 512 cores.
 *
 * Shared knobs: --threads bounds the Overlapped replay's host pool;
 * --trace <file> exports the rank-pipelined replays as one Chrome/
 * Perfetto process per strategy; --occupancy prints each replay's
 * per-lane busy breakdown (which lane — host, bus, or a rank — ends
 * the makespan).
 */

#include <iostream>
#include <vector>

#include "core/design_space.hh"
#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/table.hh"

using namespace pim;
using namespace pim::core;

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv, "threads,trace,occupancy,metrics");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);

    util::Table scaling("Fig 6(a): allocation latency (seconds) vs number "
                        "of PIM cores");
    scaling.setHeader({"PIM cores", "Host-Meta/Host-Exec",
                       "Host-Meta/PIM-Exec", "PIM-Meta/Host-Exec",
                       "PIM-Meta/PIM-Exec"});
    for (unsigned n = 1; n <= 512; n *= 2) {
        DesignSpaceParams p;
        p.numDpus = n;
        std::vector<std::string> row{util::Table::num(uint64_t{n})};
        for (auto s : kAllStrategies)
            row.push_back(
                util::Table::num(evalStrategy(s, p).totalSeconds(), 4));
        scaling.addRow(std::move(row));
    }
    scaling.print(std::cout);
    std::cout << "\n";

    util::Table breakdown("Fig 6(b): latency breakdown at 512 PIM cores");
    breakdown.setHeader({"Design strategy", "Transfer %", "Compute %",
                         "Total (s)"});
    DesignSpaceParams p512;
    p512.numDpus = 512;
    p512.simThreads = knobs.threads;
    for (auto s : kAllStrategies) {
        const auto r = evalStrategy(s, p512);
        breakdown.addRow({designStrategyName(s),
                          util::Table::num(r.transferFraction() * 100, 1),
                          util::Table::num(
                              (1 - r.transferFraction()) * 100, 1),
                          util::Table::num(r.totalSeconds(), 3)});
    }
    breakdown.print(std::cout);
    std::cout << "\n";

    // Beyond the paper: the same four pseudo-programs replayed on the
    // async command-queue runtime at rank granularity, so host compute
    // and bus transfers overlap other ranks' execution.
    trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
    util::Table overlap("Rank-pipelined (async command queue) vs serial "
                        "at 512 PIM cores");
    overlap.setHeader({"Design strategy", "Serial (s)", "Overlapped (s)",
                       "Hidden (s)", "Speedup"});
    for (const auto s : kAllStrategies) {
        const auto serial = evalStrategy(s, p512);
        DesignSpaceParams p = p512;
        const trace::TraceProcess run = obs.add(designStrategyName(s));
        p.recorder = run.recorder;
        p.metrics = run.metrics;
        const auto async = evalStrategy(s, p, ExecutionMode::Overlapped);
        overlap.addRow(
            {designStrategyName(s),
             util::Table::num(serial.totalSeconds(), 3),
             util::Table::num(async.totalSeconds(), 3),
             util::Table::num(async.overlapSavedSeconds(), 3),
             util::Table::num(
                 serial.totalSeconds() / async.totalSeconds(), 2)
                 + "x"});
    }
    overlap.print(std::cout);
    std::cout << "\nExpected shape: only PIM-Metadata/PIM-Executed stays "
                 "flat as cores grow; metadata-moving strategies are "
                 "transfer-dominated (paper Fig 6), and rank-pipelining "
                 "only partially hides their transfers.\n";

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath,
                            "Overlapped occupancy: "))
        return 1;
    return 0;
}

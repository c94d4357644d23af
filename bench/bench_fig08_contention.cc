/**
 * @file
 * Reproduces Fig 8: (a) memory allocation latency over the sequence of
 * requests when an UPMEM-style program runs the straw-man allocator
 * with 1 vs 16 tasklets (contention causes large fluctuations), and
 * (b) the latency breakdown (Run / Busy-waiting / Idle) of both runs.
 */

#include <algorithm>
#include <iostream>
#include <vector>

#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/microbench.hh"

using namespace pim;
using namespace pim::workloads;

namespace {

MicrobenchResult
run(unsigned tasklets, trace::Recorder *rec, telemetry::Registry *met)
{
    MicrobenchConfig cfg;
    cfg.allocator = core::AllocatorKind::StrawMan;
    cfg.tasklets = tasklets;
    cfg.allocsPerTasklet = tasklets == 1 ? 320 : 20; // ~320 events total
    cfg.allocSize = 32;
    cfg.traceEvents = true;
    cfg.recorder = rec;
    cfg.metrics = met;
    return runMicrobench(cfg);
}

} // namespace

int
main(int argc, char **argv)
{
    // The 1-vs-16 tasklet contrast IS the figure, so --tasklets is
    // accepted (uniform knob set) but not applied to the two runs.
    util::Cli cli(argc, argv, util::benchKnobNames());
    util::BenchKnobs defs;
    defs.dpus = 1;
    defs.sample = 1;
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli, defs);

    trace::RecorderSet recorders(knobs.wantsTrace());
    telemetry::MetricSet metrics(knobs.wantsMetrics());
    const auto one =
        run(1, recorders.add("1 tasklet"), metrics.add("1 tasklet"));
    const auto sixteen = run(16, recorders.add("16 tasklets"),
                             metrics.add("16 tasklets"));

    // (a) Latency over the allocation sequence, ordered by start time.
    auto series = [](const MicrobenchResult &r) {
        std::vector<alloc::AllocEvent> ev = r.allocStats.events;
        std::sort(ev.begin(), ev.end(),
                  [](const auto &a, const auto &b) {
                      return a.startCycle < b.startCycle;
                  });
        return ev;
    };
    const auto s1 = series(one);
    const auto s16 = series(sixteen);

    util::Table seq("Fig 8(a): allocation latency (us) over the request "
                    "sequence (every 20th request shown)");
    seq.setHeader({"Request #", "1 thread", "16 threads"});
    const sim::DpuConfig dcfg;
    for (size_t i = 0; i < std::min(s1.size(), s16.size()); i += 20) {
        seq.addRow({util::Table::num(uint64_t{i}),
                    util::Table::num(
                        dcfg.cyclesToMicros(s1[i].latencyCycles), 1),
                    util::Table::num(
                        dcfg.cyclesToMicros(s16[i].latencyCycles), 1)});
    }
    seq.print(std::cout);

    auto spread = [&](const std::vector<alloc::AllocEvent> &ev) {
        uint64_t lo = UINT64_MAX, hi = 0;
        for (const auto &e : ev) {
            lo = std::min(lo, e.latencyCycles);
            hi = std::max(hi, e.latencyCycles);
        }
        return std::pair{dcfg.cyclesToMicros(lo), dcfg.cyclesToMicros(hi)};
    };
    const auto [lo1, hi1] = spread(s1);
    const auto [lo16, hi16] = spread(s16);
    std::cout << "\nLatency range 1 thread:  [" << util::Table::num(lo1, 1)
              << ", " << util::Table::num(hi1, 1) << "] us (stable)\n"
              << "Latency range 16 threads: [" << util::Table::num(lo16, 1)
              << ", " << util::Table::num(hi16, 1)
              << "] us (contention-driven fluctuations)\n\n";

    // (b) Breakdown.
    util::Table bd("Fig 8(b): latency breakdown of memory allocation");
    bd.setHeader({"Threads", "Run %", "Busy-waiting %", "Idle(Memory) %",
                  "Idle(Etc) %"});
    for (const auto &[name, r] :
         {std::pair<const char *, const MicrobenchResult &>{"1", one},
          {"16", sixteen}}) {
        bd.addRow({name,
                   util::Table::num(
                       r.breakdown.fraction(sim::CycleKind::Run) * 100, 1),
                   util::Table::num(
                       r.breakdown.fraction(sim::CycleKind::BusyWait) * 100,
                       1),
                   util::Table::num(
                       r.breakdown.fraction(sim::CycleKind::IdleMemory)
                           * 100,
                       1),
                   util::Table::num(
                       r.breakdown.fraction(sim::CycleKind::IdleEtc) * 100,
                       1)});
    }
    bd.print(std::cout);
    std::cout << "\nExpected shape: the 16-thread run is dominated by "
                 "busy-waiting on the allocator mutex (paper Fig 8(b)).\n\n";

    // Allocator-mutex contention counters: what the busy-waiting above
    // is made of, and how many spin re-checks the parked-waiter mutex
    // elided while reproducing the identical timing.
    util::Table mx("Allocator mutex statistics");
    mx.setHeader({"Threads", "Acquisitions", "Contended", "Parked",
                  "Woken", "Elided spin events"});
    for (const auto &[name, r] :
         {std::pair<const char *, const MicrobenchResult &>{"1", one},
          {"16", sixteen}}) {
        mx.addRow({name, util::Table::num(r.mutexStats.acquisitions),
                   util::Table::num(r.mutexStats.contended),
                   util::Table::num(r.mutexStats.parked),
                   util::Table::num(r.mutexStats.woken),
                   util::Table::num(r.mutexStats.elidedSpinEvents)});
    }
    mx.print(std::cout);

    if (!trace::emitReports(std::cout, recorders, metrics,
                            knobs.occupancy, knobs.metrics,
                            knobs.tracePath))
        return 1;

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("latencySeries");
            seq.writeJson(j);
            j.key("breakdown");
            bd.writeJson(j);
            j.key("mutexStats");
            mx.writeJson(j);
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fig08_contention", &metrics, fields))
            return 1;
    }
    return 0;
}

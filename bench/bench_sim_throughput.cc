/**
 * @file
 * Simulator-throughput benchmark: how many simulation events (cycle
 * charges) per second of host wall time the per-DPU engine sustains.
 * This is the metric the horizon scheduler + fiber rework optimizes, and
 * it feeds the repo's perf trajectory (BENCH_*.json) via --json.
 *
 * Cases: 1-tasklet (uncontended) and 16-tasklet (mutex-contended)
 * alloc/free loops on PIM-malloc-SW, the paper's default design point,
 * plus a 16-tasklet pure lock/unlock pounding loop that isolates mutex
 * contention (the case the parked-waiter mutex accelerates).
 *
 * Throughput is reported in *model* events: real cycle charges plus the
 * spin re-checks the parked-waiter mutex elides analytically. The spin
 * oracle simulates the identical event stream (same clocks, same
 * breakdowns) with every re-check charged, so model events equal its
 * event count and model events/s stays comparable with spin-model
 * numbers.
 *
 * --trace/--occupancy replay each case once, untimed, with the
 * per-tasklet trace hook attached, so the measured loops stay
 * undisturbed while the capture still shows how the tasklets
 * interleave.
 */

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "core/allocator_factory.hh"
#include "core/parallel_engine.hh"
#include "core/pim_system.hh"
#include "sim/dpu.hh"
#include "sim/fiber.hh"
#include "sim/mutex.hh"
#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/logging.hh"
#include "util/table.hh"

using namespace pim;

namespace {

struct CaseResult
{
    std::string name;
    unsigned tasklets = 0;
    uint64_t simEvents = 0;
    /** Spin re-checks the parked-waiter mutex elided. */
    uint64_t elidedEvents = 0;
    /** simEvents + elidedEvents == the spin model's event count. */
    uint64_t modelEvents = 0;
    uint64_t simCycles = 0;
    double wallSeconds = 0.0;
    double eventsPerSec = 0.0;
};

void
finishCase(CaseResult &res, double best)
{
    res.modelEvents = res.simEvents + res.elidedEvents;
    res.wallSeconds = best;
    res.eventsPerSec =
        best > 0.0 ? static_cast<double>(res.modelEvents) / best : 0.0;
}

CaseResult
runCase(unsigned tasklets, unsigned allocs, unsigned reps)
{
    CaseResult res;
    res.name = std::to_string(tasklets) + "-tasklet alloc/free";
    res.tasklets = tasklets;

    // Best-of-N wall time so a noisy host doesn't hide a regression.
    double best = -1.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        // Fresh one-DPU system per rep (clean heap); timing wraps only
        // the per-DPU event loop, so the bench still measures the
        // scheduler, not the runtime plumbing.
        core::PimSystem sys(core::singleDpuConfig());
        sim::Dpu &dpu = sys.dpu(0);
        core::AllocatorOverrides ov;
        ov.numTasklets = tasklets;
        auto allocator =
            core::makeAllocator(dpu, core::AllocatorKind::PimMallocSw, ov);
        dpu.run(1, [&](sim::Tasklet &t) { allocator->init(t); });

        const auto start = std::chrono::steady_clock::now();
        dpu.run(tasklets, [&](sim::Tasklet &t) {
            for (unsigned i = 0; i < allocs; ++i) {
                const sim::MramAddr addr = allocator->malloc(t, 32);
                PIM_ASSERT(addr != sim::kNullAddr, "heap exhausted");
                const bool ok = allocator->free(t, addr);
                PIM_ASSERT(ok, "double free");
            }
        });
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        if (best < 0.0 || wall.count() < best) {
            best = wall.count();
            res.simEvents = dpu.lastSimEvents();
            res.simCycles = dpu.lastElapsedCycles();
            const sim::SimMutex *m = allocator->contentionMutex();
            res.elidedEvents = m != nullptr ? m->elidedSpinEvents() : 0;
        }
    }
    finishCase(res, best);
    return res;
}

/**
 * Mutex-pounding loop: 16 tasklets fighting over one lock with a
 * critical section long enough that every blocked tasklet re-checks
 * many times per hold (the backoff batch caps at 256 instructions), the
 * pathological case for the spin model — nearly all charges are
 * busy-wait re-checks. This is the scenario the parked-waiter mutex
 * targets: it elides those charges while reproducing their timing
 * analytically, so the identical simulation costs a fraction of the
 * host work.
 */
CaseResult
runMutexCase(unsigned tasklets, unsigned iters, unsigned reps)
{
    CaseResult res;
    res.name = std::to_string(tasklets) + "-tasklet contended mutex";
    res.tasklets = tasklets;

    double best = -1.0;
    for (unsigned rep = 0; rep < reps; ++rep) {
        sim::Dpu dpu;
        sim::SimMutex mutex;

        const auto start = std::chrono::steady_clock::now();
        dpu.run(tasklets, [&](sim::Tasklet &t) {
            for (unsigned i = 0; i < iters; ++i) {
                mutex.lock(t);
                t.execute(3000 + 100 * (t.id() % 4));
                mutex.unlock(t);
                t.execute(60);
            }
        });
        const std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;

        if (best < 0.0 || wall.count() < best) {
            best = wall.count();
            res.simEvents = dpu.lastSimEvents();
            res.simCycles = dpu.lastElapsedCycles();
            res.elidedEvents = mutex.elidedSpinEvents();
        }
    }
    finishCase(res, best);
    return res;
}

/** Replay one case, untimed, recording per-tasklet spans into @p rec. */
void
tracedCase(unsigned tasklets, unsigned allocs, trace::Recorder &rec)
{
    core::PimSystem sys(core::singleDpuConfig());
    sim::Dpu &dpu = sys.dpu(0);
    core::AllocatorOverrides ov;
    ov.numTasklets = tasklets;
    auto allocator =
        core::makeAllocator(dpu, core::AllocatorKind::PimMallocSw, ov);
    dpu.run(1, [&](sim::Tasklet &t) { allocator->init(t); });
    dpu.attachTraceRecorder(&rec);
    dpu.run(tasklets, [&](sim::Tasklet &t) {
        for (unsigned i = 0; i < allocs; ++i) {
            const sim::MramAddr addr = allocator->malloc(t, 32);
            PIM_ASSERT(addr != sim::kNullAddr, "heap exhausted");
            const bool ok = allocator->free(t, addr);
            PIM_ASSERT(ok, "double free");
        }
    });
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv, "allocs,reps,json,trace,occupancy,metrics");
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli);
    const unsigned allocs =
        static_cast<unsigned>(cli.getCount("allocs", 2048, 1));
    const unsigned reps = static_cast<unsigned>(cli.getCount("reps", 3, 1));
    const std::string &json_path = knobs.jsonPath;
    const unsigned threads = core::resolveSimThreads(knobs.threads);

    std::vector<CaseResult> results;
    for (unsigned tasklets : {1u, 16u})
        results.push_back(runCase(tasklets, allocs, reps));
    results.push_back(runMutexCase(16, allocs / 4, reps));

    util::Table table(std::string("Simulator throughput (fiber backend: ")
                      + sim::Fiber::backendName() + ", best of "
                      + std::to_string(reps) + ")");
    table.setHeader({"Case", "Charged", "Elided", "Model events",
                     "Sim cycles", "Wall (ms)", "Events/sec"});
    for (const auto &r : results) {
        table.addRow({r.name, std::to_string(r.simEvents),
                      std::to_string(r.elidedEvents),
                      std::to_string(r.modelEvents),
                      std::to_string(r.simCycles),
                      util::Table::num(r.wallSeconds * 1e3, 2),
                      util::Table::num(r.eventsPerSec / 1e6, 2) + "M"});
    }
    table.print(std::cout);

    // The measured loops run on bare DPUs (no CommandQueue), so the
    // registries are filled from the best-rep results afterwards, and
    // the spans come from one extra untimed run per case: the timed
    // region stays untouched whether observers are on or off.
    trace::ObserverSet obs(knobs.wantsTrace(), knobs.metrics);
    for (const auto &r : results) {
        const trace::TraceProcess run = obs.add(r.name);
        if (run.recorder != nullptr)
            tracedCase(r.tasklets, allocs, *run.recorder);
        if (run.metrics == nullptr)
            continue;
        telemetry::Registry &met = *run.metrics;
        met.counter("sim.events").add(r.simEvents);
        met.counter("sim.elided_spin_events").add(r.elidedEvents);
        met.counter("sim.model_events").add(r.modelEvents);
        met.counter("sim.cycles").add(r.simCycles);
    }
    trace::emitReports(std::cout, obs, /*print_occupancy=*/false,
                       knobs.metrics, /*trace_path=*/"");

    if (!json_path.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("fiber_backend").value(sim::Fiber::backendName());
            j.key("threads").value(threads);
            j.key("allocs_per_tasklet").value(allocs);
            j.key("reps").value(reps);
            j.key("cases").beginArray();
            for (const auto &r : results) {
                j.beginObject();
                j.key("name").value(r.name);
                j.key("tasklets").value(r.tasklets);
                j.key("sim_events").value(r.simEvents);
                j.key("elided_spin_events").value(r.elidedEvents);
                j.key("model_events").value(r.modelEvents);
                j.key("sim_cycles").value(r.simCycles);
                j.key("wall_seconds").value(r.wallSeconds);
                j.key("events_per_sec").value(r.eventsPerSec);
                j.endObject();
            }
            j.endArray();
        };
        if (!telemetry::writeBenchJson(
                json_path, "sim_throughput", &obs, fields))
            return 1;
        std::cout << "\nJSON written to " << json_path << "\n";
    }

    // Occupancy and the capture come after the JSON summary.
    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            /*print_metrics=*/false, knobs.tracePath,
                            "Tasklet occupancy: "))
        return 1;
    return 0;
}

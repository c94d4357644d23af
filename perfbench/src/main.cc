/**
 * @file
 * The repository benchmark program.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--out-dir <dir>]
 *   perfbench --list-metrics
 *
 * --trace 0 repeats the workload (fresh system per iteration, same
 * seeded inputs) until --seconds have passed, with no observer attached,
 * and reports the end-to-end metrics: medians over iterations for host
 * times, the (identical) simulated results otherwise. --trace 1 is the
 * separate traced run: untraced iterations on the workload's thread
 * count and on the other one (1 <-> 4) plus one iteration with spans,
 * from which it reports the per-layer metrics and the tracing overhead,
 * and writes the spans to
 * <out-dir>/spans-<workload>-<seed>.tsv. Either way the last line of
 * standard output is the JSON result, and the exit code is non-zero if
 * a correctness or fidelity check failed.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <thread>

#include "report.hh"
#include "sim/dpu.hh"
#include "spans.hh"
#include "telemetry/registry.hh"
#include "trace/chrome_trace.hh"
#include "trace/trace.hh"
#include "workloads.hh"
#include "workloads/graph/graph_gen.hh"

using namespace perfbench;
using namespace pim;

namespace {

/** Iterations that warm a fresh process up (heap growth, first-touch
 *  page mapping: queue-storm's first two run at a third of the speed of
 *  the rest); they are checked but not timed into the medians. */
constexpr size_t kWarmupIterations = 2;
/** Timed iterations of an untraced run, whatever --seconds says. */
constexpr size_t kMinIterations = 3;
/** Simulator threads of the multi-DPU workloads (the host has 4). */
constexpr unsigned kThreads = 4;
/** Spans written out per traced run (self times use all of them);
 *  queue-storm records about 800K, mostly Dpu::run. */
constexpr size_t kMaxWrittenSpans = 100000;

/** A workload bound to its seeded inputs. */
struct BoundWorkload
{
    std::function<IterResult(const IterConfig &)> run;
    /** The synthetic graph the workload ingests, if any. */
    std::optional<GraphInputs> graph;
    /** True if the workload's launches run inside the workload tasks,
     *  so sim events are counted by a telemetry registry on the queue. */
    bool countsViaRegistry = false;
    /** Simulator threads of the measured iterations. */
    unsigned threads = kThreads;
};

using Binder = BoundWorkload (*)(uint64_t seed);

struct WorkloadEntry
{
    const char *name;
    Binder bind;
};

const WorkloadEntry kWorkloads[] = {
    {"alloc-mix",
     [](uint64_t seed) {
         auto in = std::make_shared<AllocMixInputs>(makeAllocMixInputs(seed));
         return BoundWorkload{
             [in](const IterConfig &c) { return runAllocMix(*in, c); },
             std::nullopt, false, 1};
     }},
    {"queue-storm",
     [](uint64_t seed) {
         auto in =
             std::make_shared<QueueStormInputs>(makeQueueStormInputs(seed));
         return BoundWorkload{
             [in](const IterConfig &c) { return runQueueStorm(*in, c); },
             std::nullopt, false};
     }},
    {"graph-ingest",
     [](uint64_t seed) {
         auto in =
             std::make_shared<GraphIngestInputs>(makeGraphIngestInputs(seed));
         return BoundWorkload{
             [in](const IterConfig &c) { return runGraphIngest(*in, c); },
             in->graph, true};
     }},
    {"serving-cotenant",
     [](uint64_t seed) {
         auto in = std::make_shared<ServingCotenantInputs>(
             makeServingCotenantInputs(seed));
         return BoundWorkload{
             [in](const IterConfig &c) {
                 return runServingCotenant(*in, c);
             },
             in->replicas[0].graph, true, 1};
     }},
};

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir;
    bool listMetrics = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n"
                 "       perfbench --list-metrics\n";
    std::exit(2);
}

/** @p v as a number; usage error unless all of it parses. */
double
parseNumber(const std::string &flag, const std::string &v)
{
    char *end = nullptr;
    const double x = std::strtod(v.c_str(), &end);
    if (v.empty() || *end != '\0' || !std::isfinite(x) || x < 0.0)
        usage("bad number for " + flag + ": " + v);
    return x;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        if (k == "--list-metrics") {
            a.listMetrics = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + k);
        const std::string v = argv[++i];
        if (k == "--workload") {
            a.workload = v;
        } else if (k == "--seed") {
            a.seed = static_cast<uint64_t>(parseNumber(k, v));
        } else if (k == "--seconds") {
            a.seconds = parseNumber(k, v);
        } else if (k == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
        } else if (k == "--out-dir") {
            a.outDir = v;
        } else {
            usage("unknown flag " + k);
        }
    }
    return a;
}

double
median(const std::vector<double> &xs)
{
    return percentile(xs, 50.0);
}

/**
 * This process's peak resident memory: VmHWM, the high-water mark of
 * its own address space. (getrusage's ru_maxrss survives exec, so it
 * would report the launching process's peak when that was larger.)
 */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0; // kB
    }
    return std::nan("");
}

/** Fidelity: every sim_* value of @p r equals the reference's. */
void
checkSimEqual(const IterResult &ref, const IterResult &r,
              const std::string &what, std::vector<std::string> &errors)
{
    if (r.sim == ref.sim)
        return;
    for (const auto &[name, v] : ref.sim) {
        const auto it = r.sim.find(name);
        if (it == r.sim.end() || it->second != v) {
            std::ostringstream os;
            os.precision(17);
            os << "fidelity: " << name << " is " << v << " in the first "
               << "iteration but "
               << (it == r.sim.end() ? std::nan("") : it->second) << " in "
               << what;
            errors.push_back(os.str());
        }
    }
}

/** Host ns per Dpu::run of a one-charge body (launch set-up alone). */
double
launchNs(unsigned tasklets)
{
    constexpr unsigned kRuns = 1000;
    sim::Dpu dpu;
    auto body = [](sim::Tasklet &t) { t.execute(1); };
    dpu.run(tasklets, body);
    const Clock::time_point t0 = Clock::now();
    for (unsigned i = 0; i < kRuns; ++i)
        dpu.run(tasklets, body);
    return secondsSince(t0) * 1e9 / kRuns;
}

void
printErrors(const std::vector<std::string> &errors)
{
    for (const std::string &e : errors)
        std::cout << "CHECK FAILED: " << e << "\n";
}

void
printSim(const IterResult &r)
{
    std::cout << "simulated results (identical across iterations):\n";
    std::cout.precision(10);
    for (const auto &[name, v] : r.sim)
        std::cout << "  " << name << " = " << v << " " << unitOf(name) << "\n";
}

/** One pass of the reference kernel: xorshift updates scattered over
 *  a 1 MiB buffer. */
volatile uint64_t g_referenceSink = 0;

void
referenceKernel(std::vector<uint64_t> &buf)
{
    uint64_t x = 88172645463325252ull;
    for (int k = 0; k < 1500000; ++k) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        buf[x & (buf.size() - 1)] += x;
    }
    g_referenceSink = buf[x & 7];
}

/**
 * Host seconds of the reference kernel run at once on @p threads
 * threads — a fixed CPU-and-cache load that touches nothing of the
 * simulator — the fastest of three runs, so one preempted run does not
 * count. Running it on as many threads as the workload simulates with
 * also catches other load on the host's cores.
 */
double
referenceSeconds(unsigned threads)
{
    static std::vector<std::vector<uint64_t>> bufs;
    while (bufs.size() < threads)
        bufs.emplace_back(1u << 17, 0);
    double best = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
        std::atomic<bool> go{false};
        std::vector<std::thread> helpers;
        for (unsigned i = 1; i < threads; ++i) {
            helpers.emplace_back([&go, &buf = bufs[i]] {
                while (!go.load(std::memory_order_acquire)) {
                }
                referenceKernel(buf);
            });
        }
        const Clock::time_point t0 = Clock::now();
        go.store(true, std::memory_order_release);
        referenceKernel(bufs[0]);
        for (std::thread &h : helpers)
            h.join();
        const double t = secondsSince(t0);
        best = rep == 0 ? t : std::min(best, t);
    }
    return best;
}

/** Nominal referenceSeconds(1) and (4) on the reference host (an idle
 *  4-vCPU 2.1 GHz x86-64 VM); normalized host times are in that host's
 *  seconds. */
double
referenceNominalSec(unsigned threads)
{
    return threads == 1 ? 0.0040 : 0.0052;
}

/** An iteration and this host's slowness during its measured region
 *  relative to the reference host (> 1 = slower). */
struct Normalized
{
    IterResult r;
    double factor;

    /** Measured-region host seconds in reference-host seconds. */
    double wall() const { return r.measuredSec / factor; }
};

/**
 * Run one iteration with the reference kernel timed at the edges of its
 * measured region(s), on as many threads as the iteration simulates
 * with. This host's speed drifts by up to +-20% over seconds to
 * minutes, the same for every workload, so dividing the iteration's
 * host seconds by the mean reference time over its nominal value
 * normalizes them.
 */
Normalized
runNormalized(const BoundWorkload &w, IterConfig cfg)
{
    std::vector<double> refs;
    cfg.measureEdge = [&refs, threads = cfg.threads] {
        refs.push_back(referenceSeconds(threads));
    };
    IterResult r = w.run(cfg);
    double sum = 0.0;
    for (const double x : refs)
        sum += x;
    const double factor = refs.empty()
        ? 1.0
        : sum / static_cast<double>(refs.size())
            / referenceNominalSec(cfg.threads);
    return {std::move(r), factor};
}

int
runUntraced(const Args &a, const BoundWorkload &w)
{
    std::vector<IterResult> its;
    std::vector<double> factors;
    const Clock::time_point start = Clock::now();
    while (its.size() < kWarmupIterations + kMinIterations
           || secondsSince(start) < a.seconds) {
        Normalized n = runNormalized(w, {.threads = w.threads});
        its.push_back(std::move(n.r));
        factors.push_back(n.factor);
    }

    std::vector<std::string> errors;
    uint64_t attempted = 0, failed = 0;
    std::vector<double> ops_per_s, setup_s, raw_ops_per_s, raw_setup_s;
    for (size_t i = 0; i < its.size(); ++i) {
        const IterResult &r = its[i];
        errors.insert(errors.end(), r.errors.begin(), r.errors.end());
        checkSimEqual(its[0], r, "iteration " + std::to_string(i + 1),
                      errors);
        attempted += r.attempted;
        failed += r.failed;
        if (i < kWarmupIterations)
            continue;
        raw_ops_per_s.push_back(static_cast<double>(r.ops) / r.measuredSec);
        raw_setup_s.push_back(r.setupSec);
        ops_per_s.push_back(raw_ops_per_s.back() * factors[i]);
        setup_s.push_back(r.setupSec / factors[i]);
    }

    Report rep(endToEndMetrics(), false);
    rep.set("ops_per_s", median(ops_per_s));
    rep.set("setup_s", median(setup_s));
    rep.set("peak_rss_mb", peakRssMb());
    rep.set("sim_makespan_s", its[0].sim.at("sim_makespan_s"));
    for (const std::string &n : rep.invalid())
        errors.push_back("end-to-end metric " + n + " is missing or not finite");

    std::cout << "perfbench " << a.workload << " seed " << a.seed << ": "
              << its.size() - kWarmupIterations << " timed iterations (after "
              << kWarmupIterations << " warm-up) of " << its[0].ops
              << " operations, " << w.threads << " simulator thread(s)\n"
              << "end-to-end (host times normalized to the reference host, "
                 "medians over iterations):\n";
    rep.writeTable(std::cout);
    const auto range = [](const char *name, const std::vector<double> &xs) {
        std::cout << "  " << name << ": min " << percentile(xs, 0.0)
                  << ", p25 " << percentile(xs, 25.0) << ", median "
                  << percentile(xs, 50.0) << ", p75 " << percentile(xs, 75.0)
                  << ", max " << percentile(xs, 100.0) << "\n";
    };
    std::cout << "per-iteration spread (normalized, then as measured):\n";
    range("ops_per_s", ops_per_s);
    range("setup_s", setup_s);
    range("raw ops_per_s", raw_ops_per_s);
    range("raw setup_s", raw_setup_s);
    range("host factor", factors);
    printSim(its[0]);
    std::cout << "  failed_frac = "
              << (attempted ? static_cast<double>(failed) / attempted : 0.0)
              << " (" << failed << " of " << attempted << ")\n";
    printErrors(errors);
    const bool correct = errors.empty() && failed == 0;
    rep.writeResultLine(std::cout, correct, attempted, failed);
    return correct ? 0 : 1;
}

int
runTraced(const Args &a, const BoundWorkload &w)
{
    std::vector<std::string> errors;
    uint64_t attempted = 0, failed = 0;
    auto account = [&](const IterResult &r, const std::string &what) {
        for (const std::string &e : r.errors)
            errors.push_back(what + ": " + e);
        attempted += r.attempted;
        failed += r.failed;
    };
    const IterResult warmup = w.run({.threads = w.threads});
    account(warmup, "warm-up");

    std::vector<double> factors;
    auto run = [&](const IterConfig &cfg, const std::string &what) {
        Normalized n = runNormalized(w, cfg);
        account(n.r, what);
        factors.push_back(n.factor);
        return n;
    };
    // Untraced iterations bracket the traced one, so host drift between
    // them does not land in the overhead ratio.
    const Normalized first = run({.threads = w.threads}, "untraced");
    Tracer tracer(1);
    std::optional<telemetry::Registry> counts;
    if (w.countsViaRegistry)
        counts.emplace();
    const Normalized traced = run({.threads = w.threads, .tracer = &tracer,
                                   .metrics = counts ? &*counts : nullptr},
                                  "traced");
    const Normalized base = run({.threads = w.threads}, "untraced");
    // The fidelity repeat on the other thread count (1 <-> 4).
    const unsigned other = w.threads == 1 ? kThreads : 1;
    const Normalized repeat =
        run({.threads = other}, std::to_string(other) + "-thread repeat");
    checkSimEqual(first.r, traced.r, "the traced iteration", errors);
    checkSimEqual(first.r, base.r, "the second untraced iteration", errors);
    checkSimEqual(first.r, repeat.r,
                  "the " + std::to_string(other) + "-thread iteration",
                  errors);
    const Normalized &t1 = other == 1 ? repeat : base;
    const Normalized &t4 = other == 1 ? base : repeat;

    Report rep(perLayerMetrics(), true);
    for (const auto &[name, v] : base.r.layer)
        rep.set(name, v);
    for (const auto &[name, v] : base.r.sim)
        if (name != "sim_makespan_s")
            rep.set(name, v);
    // Only the process's first call pays the calibration microbenchmark.
    if (warmup.layer.count("llm.calibration_s"))
        rep.set("llm.calibration_s", warmup.layer.at("llm.calibration_s"));

    rep.set("bench.trace_overhead_frac",
            traced.wall() / (0.5 * (first.wall() + base.wall())));
    rep.set("core.wall_scaling", t1.wall() / t4.wall());
    if (t4.r.layer.count("core.drain_phase1_s")
        && t4.r.layer.at("core.drain_phase1_s") > 0.0)
        rep.set("core.phase1_scaling",
                (t1.r.layer.at("core.drain_phase1_s") / t1.factor)
                    / (t4.r.layer.at("core.drain_phase1_s") / t4.factor));
    if (counts) {
        const auto &c = counts->counters();
        const auto it = c.find("queue.sim_events");
        const double events =
            it != c.end() ? static_cast<double>(it->second.value()) : 0.0;
        rep.set("sim.model_events", events);
        if (events > 0.0)
            rep.set("sim.host_ns_per_event",
                    base.r.layer.at("core.drain_phase1_s") * 1e9 / events);
    }
    rep.set("sim.launch_ns_t1", launchNs(1));
    rep.set("sim.launch_ns_t16", launchNs(16));

    if (w.graph) {
        // graph.gen_s: the graph module's generator alone (the workload
        // runs it inside GraphUpdateTask construction).
        const Clock::time_point t0 = Clock::now();
        {
            Span s(&tracer, "graph.generateGraph", Layer::Graph);
            const workloads::graph::GraphDataset g =
                workloads::graph::generateGraph(w.graph->gen);
            workloads::graph::splitForUpdate(g, 1.0 / 3.0,
                                             w.graph->splitSeed);
        }
        rep.set("graph.gen_s", secondsSince(t0));
    }

    if (a.workload == "serving-cotenant") {
        // Observer rows: the same co-run plain, with a metrics registry,
        // and with a trace recorder, attached through the public calls.
        constexpr int kRepeats = 2;
        std::vector<double> plain, with_metrics, with_trace;
        double trace_bytes = 0.0;
        for (int i = 0; i < kRepeats; ++i) {
            plain.push_back(
                run({.threads = w.threads}, "observer row (plain)").wall());

            telemetry::Registry reg;
            const Normalized m = run({.threads = w.threads, .metrics = &reg},
                                     "observer row (metrics)");
            checkSimEqual(first.r, m.r, "the metrics-attached iteration",
                          errors);
            with_metrics.push_back(m.wall());
            {
                Span s(&tracer, "obs.snapshotString", Layer::Obs);
                reg.snapshotString();
            }

            trace::Recorder rec;
            const Normalized t = run(
                {.threads = w.threads, .recorder = &rec},
                "observer row (trace)");
            checkSimEqual(first.r, t.r, "the recorder-attached iteration",
                          errors);
            with_trace.push_back(t.wall());
            std::ostringstream os;
            {
                Span s(&tracer, "obs.writeChromeTrace", Layer::Obs);
                trace::writeChromeTrace(os, rec);
            }
            trace_bytes = static_cast<double>(os.tellp());
        }
        rep.set("obs.metrics_overhead_frac",
                median(with_metrics) / median(plain) - 1.0);
        rep.set("obs.trace_overhead_frac",
                median(with_trace) / median(plain) - 1.0);
        rep.set("obs.trace_bytes", trace_bytes);
    }

    // Span-derived layer metrics. Allocator call spans are named
    // "alloc.malloc:<kind>" / "alloc.free:<kind>".
    const std::vector<SpanRecord> spans = tracer.spans();
    double enqueue_ns = 0.0, sync_s = 0.0;
    uint64_t enqueues = 0;
    std::map<std::string, std::pair<double, uint64_t>> call_ns;
    for (const SpanRecord &s : spans) {
        const std::string_view n = s.name;
        if (n.starts_with("alloc.malloc:") || n.starts_with("alloc.free:")) {
            auto &[ns, count] = call_ns[std::string(n.substr(n.find(':') + 1))];
            ns += static_cast<double>(s.t1 - s.t0);
            ++count;
        } else if (n == "core.enqueue") {
            enqueue_ns += static_cast<double>(s.t1 - s.t0);
            ++enqueues;
        } else if (n == "core.sync" || n == "core.eventSeconds"
                   || n == "core.eventFailed") {
            sync_s += static_cast<double>(s.t1 - s.t0) * 1e-9;
        }
    }
    rep.set("core.enqueue_ns_per_cmd",
            enqueues ? enqueue_ns / static_cast<double>(enqueues) : 0.0);
    rep.set("core.sync_s", sync_s);
    for (const auto &[kind, acc] : call_ns)
        rep.set("alloc.host_ns_per_call." + kind,
                acc.first / static_cast<double>(acc.second));
    const std::array<double, kNumLayers> self = tracer.selfSeconds();
    for (size_t l = 0; l < kNumLayers; ++l)
        rep.set(std::string("span.self_s.") + layerName(static_cast<Layer>(l)),
                self[l]);
    rep.set("bench.failed_frac",
            attempted ? static_cast<double>(failed) / attempted : 0.0);
    rep.set("bench.host_speed", 1.0 / median(factors));
    for (const std::string &n : rep.invalid())
        errors.push_back("per-layer metric " + n + " is not finite");

    if (!a.outDir.empty()) {
        const std::string path = a.outDir + "/spans-" + a.workload + "-"
            + std::to_string(a.seed) + ".tsv";
        std::ofstream out(path);
        tracer.write(out, kMaxWrittenSpans);
        if (!out)
            errors.push_back("cannot write " + path);
        else
            std::cout << "spans written to " << path << " (" << spans.size()
                      << " spans)\n";
    }

    std::cout << "perfbench " << a.workload << " seed " << a.seed
              << ": traced run (per-layer metrics)\n";
    rep.writeTable(std::cout);
    printErrors(errors);
    const bool correct = errors.empty() && failed == 0;
    rep.writeResultLine(std::cout, correct, attempted, failed);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    if (a.listMetrics) {
        for (const MetricDef &d : endToEndMetrics())
            std::cout << "end_to_end " << d.name << " " << d.unit << "\n";
        for (const MetricDef &d : perLayerMetrics())
            std::cout << "per_layer " << d.name << " " << d.unit << "\n";
        return 0;
    }
    for (const WorkloadEntry &e : kWorkloads) {
        if (a.workload == e.name) {
            const BoundWorkload w = e.bind(a.seed);
            return a.trace ? runTraced(a, w) : runUntraced(a, w);
        }
    }
    usage("unknown workload '" + a.workload + "'");
}

#include "report.hh"

#include <cmath>
#include <cstdio>
#include <iomanip>

#include "util/logging.hh"

namespace perfbench {

namespace {

/** Append the 13 allocator metrics of one kind suffix. */
void
addAllocKind(std::vector<MetricDef> &v, const std::string &k)
{
    v.push_back({"alloc.malloc_calls." + k, "count"});
    v.push_back({"alloc.free_calls." + k, "count"});
    v.push_back({"alloc.failures." + k, "count"});
    v.push_back({"alloc.frontend_frac." + k, "frac"});
    v.push_back({"alloc.backend_frac." + k, "frac"});
    v.push_back({"alloc.bypass_frac." + k, "frac"});
    v.push_back({"alloc.sim_cycles_frontend." + k, "cycles"});
    v.push_back({"alloc.sim_cycles_backend." + k, "cycles"});
    v.push_back({"alloc.sim_cycles_bypass." + k, "cycles"});
    v.push_back({"alloc.metadata_bytes_per_malloc." + k, "B"});
    v.push_back({"alloc.buddy_cache_hit_rate." + k, "frac"});
    v.push_back({"alloc.mutex_contended_frac." + k, "frac"});
    v.push_back({"alloc.peak_frag." + k, "x"});
}

std::vector<MetricDef>
buildPerLayer()
{
    std::vector<MetricDef> v;
    for (const char *k : {"strawman", "sw", "hwsw"})
        addAllocKind(v, k);
    for (const char *k : {"strawman", "sw", "hwsw"})
        v.push_back({std::string("alloc.host_ns_per_call.") + k, "ns"});
    const MetricDef rest[] = {
        {"sim.runs", "count"},
        {"sim.model_events", "count"},
        {"sim.elided_events", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.launch_ns_t1", "ns"},
        {"sim.launch_ns_t16", "ns"},
        {"sim.run_frac", "frac"},
        {"sim.busywait_frac", "frac"},
        {"sim.idle_mem_frac", "frac"},
        {"core.system_setup_s", "s"},
        {"core.enqueue_ns_per_cmd", "ns"},
        {"core.sync_s", "s"},
        {"core.drain_phase1_s", "s"},
        {"core.drain_phase2_s", "s"},
        {"core.drains", "count"},
        {"core.commands", "count"},
        {"core.phase1_scaling", "x"},
        {"core.wall_scaling", "x"},
        {"core.bus_bytes", "B"},
        {"core.bus_busy_frac", "frac"},
        {"core.launch_work_s", "s"},
        {"graph.gen_s", "s"},
        {"graph.build_s", "s"},
        {"graph.step_ms_p50", "ms"},
        {"graph.step_ms_p90", "ms"},
        {"llm.step_us_p50", "us"},
        {"llm.step_us_p99", "us"},
        {"llm.steps", "count"},
        {"llm.prefill_waves", "count"},
        {"llm.kv_shipped_bytes", "B"},
        {"llm.calibration_s", "s"},
        {"obs.metrics_overhead_frac", "frac"},
        {"obs.trace_overhead_frac", "frac"},
        {"obs.trace_bytes", "B"},
        {"span.self_s.alloc", "s"},
        {"span.self_s.sim", "s"},
        {"span.self_s.core", "s"},
        {"span.self_s.graph", "s"},
        {"span.self_s.llm", "s"},
        {"span.self_s.obs", "s"},
        {"sim_alloc_cycles_mean", "cycles"},
        {"sim_alloc_cycles_p99", "cycles"},
        {"sim_medges_per_s", "Medges/s"},
        {"sim_tpot_p99_ms", "ms"},
        {"sim_ttft_p95_ms", "ms"},
        {"bench.failed_frac", "frac"},
        {"bench.trace_overhead_frac", "x"},
        {"bench.host_speed", "x"},
    };
    v.insert(v.end(), std::begin(rest), std::end(rest));
    return v;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> v = {
        {"ops_per_s", "1/s"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"sim_makespan_s", "s"},
    };
    return v;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> v = buildPerLayer();
    return v;
}

std::string
unitOf(const std::string &name)
{
    for (const auto *defs : {&endToEndMetrics(), &perLayerMetrics()}) {
        for (const MetricDef &d : *defs) {
            if (d.name == name)
                return d.unit;
        }
    }
    return "";
}

Report::Report(const std::vector<MetricDef> &defs, bool zero_fill)
    : defs_(defs)
{
    if (zero_fill) {
        for (const MetricDef &d : defs_)
            values_[d.name] = 0.0;
    }
}

void
Report::set(const std::string &name, double value)
{
    for (const MetricDef &d : defs_) {
        if (d.name == name) {
            values_[name] = value;
            return;
        }
    }
    PIM_FATAL("metric ", name, " is not in the catalogue");
}

std::vector<std::string>
Report::invalid() const
{
    std::vector<std::string> bad;
    for (const MetricDef &d : defs_) {
        const auto it = values_.find(d.name);
        if (it == values_.end() || !std::isfinite(it->second))
            bad.push_back(d.name);
    }
    return bad;
}

void
Report::writeResultLine(std::ostream &out, bool correct, uint64_t attempted,
                        uint64_t failed) const
{
    out << "{\"correct\": " << (correct ? "true" : "false")
        << ", \"attempted\": " << attempted << ", \"failed\": " << failed
        << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs_) {
        const auto it = values_.find(d.name);
        const double v = it != values_.end() && std::isfinite(it->second)
            ? it->second : 0.0;
        char num[40];
        std::snprintf(num, sizeof(num), "%.17g", v);
        out << (first ? "" : ", ") << "\"" << d.name << "\": {\"value\": "
            << num << ", \"unit\": \"" << d.unit << "\"}";
        first = false;
    }
    out << "}}\n";
}

void
Report::writeTable(std::ostream &out) const
{
    for (const MetricDef &d : defs_) {
        const auto it = values_.find(d.name);
        out << "  " << std::left << std::setw(38) << d.name << std::right
            << std::setw(16) << std::setprecision(6)
            << (it != values_.end() ? it->second : NAN) << "  " << d.unit
            << "\n";
    }
}

} // namespace perfbench

#include "trace/chrome_trace.hh"

#include <fstream>
#include <iostream>

#include "telemetry/export.hh"
#include "trace/occupancy.hh"
#include "util/json.hh"

namespace pim::trace {

namespace {

/** Metadata event ({"ph":"M"}) with one string or integer arg. */
void
metaEvent(util::JsonWriter &j, const char *name, int pid, int tid,
          const char *arg_key, const std::string &arg_str, int64_t arg_int,
          bool string_arg)
{
    j.beginObject();
    j.key("name").value(name);
    j.key("ph").value("M");
    j.key("pid").value(pid);
    j.key("tid").value(tid);
    j.key("args").beginObject();
    if (string_arg)
        j.key(arg_key).value(arg_str);
    else
        j.key(arg_key).value(arg_int);
    j.endObject();
    j.endObject();
}

/**
 * Perfetto counter tracks: one "C"-phase event per value change of
 * each sampler series (each unique (pid, name) renders as its own
 * counter track). Unchanged consecutive bins are elided — "C" events
 * hold their value until the next one — except the last bin, which is
 * always emitted so the track spans the full run.
 */
void
writeCounterTracks(util::JsonWriter &j,
                   const telemetry::Registry &met, int pid)
{
    const double cadence = met.sampler().cadence();
    for (const auto &s : met.sampler().snapshot()) {
        for (size_t b = 0; b < s.values.size(); ++b) {
            if (b > 0 && b + 1 < s.values.size()
                && s.values[b] == s.values[b - 1])
                continue;
            j.beginObject();
            j.key("name").value(s.name);
            j.key("ph").value("C");
            j.key("ts").value(static_cast<double>(b) * cadence * 1e6);
            j.key("pid").value(pid);
            j.key("args").beginObject();
            j.key("value").value(s.values[b]);
            j.endObject();
            j.endObject();
        }
    }
}

void
writeProcess(util::JsonWriter &j, const TraceProcess &proc, int pid)
{
    metaEvent(j, "process_name", pid, 0, "name", proc.name, 0, true);
    if (proc.metrics != nullptr)
        writeCounterTracks(j, *proc.metrics, pid);
    if (proc.recorder == nullptr)
        return;
    const Recorder &rec = *proc.recorder;

    // One named thread per lane, sorted host < bus < ranks < customs.
    const std::vector<int> lanes = rec.lanes();
    std::vector<int> lane_tid(lanes.size());
    for (size_t i = 0; i < lanes.size(); ++i) {
        const int tid = static_cast<int>(i);
        lane_tid[i] = tid;
        metaEvent(j, "thread_name", pid, tid, "name",
                  rec.laneName(lanes[i]), 0, true);
        metaEvent(j, "thread_sort_index", pid, tid, "sort_index", "",
                  tid, false);
    }
    auto tidOf = [&](int lane) {
        for (size_t i = 0; i < lanes.size(); ++i) {
            if (lanes[i] == lane)
                return lane_tid[i];
        }
        return 0; // unreachable: lanes() covers every recorded span
    };

    for (const Span &s : rec.spans()) {
        j.beginObject();
        j.key("name").value(s.name);
        j.key("cat").value(s.idle ? "wait"
                                  : isCustomLane(s.lane) ? "sim" : "queue");
        j.key("ph").value("X");
        j.key("ts").value(s.t0 * 1e6);
        j.key("dur").value(s.duration() * 1e6);
        j.key("pid").value(pid);
        j.key("tid").value(tidOf(s.lane));
        j.key("args").beginObject();
        if (s.bytes > 0)
            j.key("bytes").value(s.bytes);
        if (s.cycles > 0)
            j.key("cycles").value(s.cycles);
        if (s.event != kNoSpanEvent)
            j.key("event").value(s.event);
        if (s.after != kNoSpanEvent)
            j.key("after").value(s.after);
        if (!s.tenant.empty())
            j.key("tenant").value(s.tenant);
        j.endObject();
        j.endObject();
    }
}

} // namespace

void
writeChromeTrace(std::ostream &out,
                 const std::vector<TraceProcess> &processes)
{
    util::JsonWriter j(out);
    j.beginObject();
    j.key("displayTimeUnit").value("ms");
    j.key("traceEvents").beginArray();
    int pid = 1;
    for (const TraceProcess &proc : processes) {
        if (proc.recorder != nullptr || proc.metrics != nullptr)
            writeProcess(j, proc, pid);
        ++pid;
    }
    j.endArray();
    j.endObject();
}

void
writeChromeTrace(std::ostream &out, const Recorder &rec,
                 const std::string &process_name)
{
    writeChromeTrace(out, {{process_name, &rec}});
}

bool
writeChromeTraceFile(const std::string &path,
                     const std::vector<TraceProcess> &processes)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << "\n";
        return false;
    }
    writeChromeTrace(out, processes);
    out.flush();
    if (!out) {
        std::cerr << "write failed: " << path << "\n";
        return false;
    }
    std::cout << "trace written to " << path << "\n";
    return true;
}

Recorder *
RecorderSet::add(std::string name)
{
    if (!enabled_)
        return nullptr;
    recorders_.emplace_back();
    names_.push_back(std::move(name));
    return &recorders_.back();
}

std::vector<TraceProcess>
RecorderSet::processes() const
{
    std::vector<TraceProcess> procs;
    for (size_t i = 0; i < names_.size(); ++i)
        procs.push_back({names_[i], &recorders_[i]});
    return procs;
}

bool
emitReports(std::ostream &out,
            const std::vector<TraceProcess> &processes,
            bool print_occupancy, const std::string &trace_path,
            const std::string &title_prefix)
{
    if (print_occupancy) {
        for (const TraceProcess &p : processes) {
            if (p.recorder == nullptr)
                continue; // metrics-only process: no spans to analyze
            out << "\n";
            const OccupancyReport rep = analyzeOccupancy(*p.recorder);
            rep.toTable(title_prefix + p.name).print(out);
            if (!rep.tenants.empty()) {
                out << "\n";
                rep.tenantsTable("Tenant occupancy: " + p.name)
                    .print(out);
            }
        }
    }
    if (!trace_path.empty())
        return writeChromeTraceFile(trace_path, processes);
    return true;
}

bool
emitReports(std::ostream &out, const RecorderSet &recorders,
            bool print_occupancy, const std::string &trace_path,
            const std::string &title_prefix)
{
    if (!recorders.enabled())
        return true;
    return emitReports(out, recorders.processes(), print_occupancy,
                       trace_path, title_prefix);
}

bool
emitReports(std::ostream &out, const RecorderSet &recorders,
            const telemetry::MetricSet &metrics, bool print_occupancy,
            bool print_metrics, const std::string &trace_path,
            const std::string &title_prefix)
{
    std::vector<TraceProcess> procs = recorders.enabled()
        ? recorders.processes() : std::vector<TraceProcess>{};
    if (metrics.enabled()) {
        for (const auto &e : metrics.entries()) {
            bool paired = false;
            for (TraceProcess &p : procs) {
                if (p.name == e.name) {
                    p.metrics = e.registry;
                    paired = true;
                }
            }
            if (!paired)
                procs.push_back({e.name, nullptr, e.registry});
        }
    }
    emitReports(out, procs, print_occupancy, /*trace_path=*/"",
                title_prefix);
    telemetry::printMetrics(out, metrics, print_metrics);
    if (!trace_path.empty() && !procs.empty())
        return writeChromeTraceFile(trace_path, procs);
    return true;
}

} // namespace pim::trace

#include "trace/chrome_trace.hh"

#include <fstream>
#include <iostream>

#include "trace/occupancy.hh"
#include "util/json.hh"
#include "util/table.hh"

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
writeProcess(util::JsonWriter &j, const std::string &name,
             const Recorder *recorder, const telemetry::Registry *metrics,
             int pid)
{
    metaEvent(j, "process_name", pid, 0, "name", name, 0, true);
    if (metrics != nullptr)
        writeCounterTracks(j, *metrics, pid);
    if (recorder == nullptr)
        return;
    const Recorder &rec = *recorder;

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

/** Open the capture object and its "traceEvents" array. */
void
beginCapture(util::JsonWriter &j)
{
    j.beginObject();
    j.key("displayTimeUnit").value("ms");
    j.key("traceEvents").beginArray();
}

void
endCapture(util::JsonWriter &j)
{
    j.endArray();
    j.endObject();
}

} // namespace

void
writeChromeTrace(std::ostream &out,
                 const std::vector<TraceProcess> &processes)
{
    util::JsonWriter j(out);
    beginCapture(j);
    int pid = 1;
    for (const TraceProcess &proc : processes) {
        if (proc.recorder != nullptr || proc.metrics != nullptr)
            writeProcess(j, proc.name, proc.recorder, proc.metrics, pid);
        ++pid;
    }
    endCapture(j);
}

void
writeChromeTrace(std::ostream &out, const Recorder &rec,
                 const std::string &process_name)
{
    util::JsonWriter j(out);
    beginCapture(j);
    writeProcess(j, process_name, &rec, nullptr, 1);
    endCapture(j);
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

TraceProcess
ObserverSet::add(std::string name)
{
    TraceProcess p;
    p.name = std::move(name);
    if (trace_)
        p.recorder = &recorders_.emplace_back();
    if (metrics_)
        p.metrics = &registries_.emplace_back();
    procs_.push_back(p);
    return p;
}

bool
emitReports(std::ostream &out, const ObserverSet &obs,
            bool print_occupancy, bool print_metrics,
            const std::string &trace_path, const std::string &title_prefix)
{
    if (print_occupancy) {
        for (const TraceProcess &p : obs.processes()) {
            if (p.recorder == nullptr)
                continue; // metrics-only run: no spans to analyze
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
    if (print_metrics) {
        for (const TraceProcess &p : obs.processes()) {
            if (p.metrics == nullptr)
                continue;
            for (const util::Table &t : p.metrics->tables(p.name)) {
                out << "\n";
                t.print(out);
            }
        }
    }
    if (trace_path.empty())
        return true;
    return writeChromeTraceFile(trace_path, obs.processes());
}

} // namespace pim::trace

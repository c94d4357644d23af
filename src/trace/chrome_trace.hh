/**
 * @file
 * Chrome trace-event / Perfetto exporter for trace::Recorder. Emits the
 * JSON object form ({"traceEvents": [...]}) with complete ("X") events,
 * so a capture loads directly in chrome://tracing or ui.perfetto.dev.
 *
 * Each recorder becomes one process; its lanes become named, sorted
 * threads (host, bus, rank0..N, then custom lanes). Timestamps are
 * microseconds, as the format requires. Transfer payloads, DPU cycles,
 * and command Event ids/dependencies ride along in each event's args.
 */

#ifndef PIM_TRACE_CHROME_TRACE_HH
#define PIM_TRACE_CHROME_TRACE_HH

#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "trace/trace.hh"

namespace pim::telemetry {
class MetricSet;
class Registry;
}

namespace pim::trace {

/**
 * One process of a multi-experiment capture: span lanes from the
 * recorder, Perfetto counter tracks ("C"-phase events — utilization,
 * queue depth, busy-rank curves) from the registry's TimelineSampler.
 * Either may be null; a metrics-only process emits just its counter
 * tracks.
 */
struct TraceProcess
{
    std::string name;
    const Recorder *recorder = nullptr;
    const telemetry::Registry *metrics = nullptr;
};

/**
 * Named recorders for a multi-configuration bench: one recorder per
 * traced run, with stable addresses, created only when tracing was
 * requested. The standard shape is
 *
 *   trace::RecorderSet recorders(knobs.wantsTrace());
 *   cfg.recorder = recorders.add(run_name);     // nullptr when off
 *   ...
 *   if (!trace::emitReports(std::cout, recorders, knobs.occupancy,
 *                           knobs.tracePath))
 *       return 1;
 */
class RecorderSet
{
  public:
    /** @param enabled false = add() returns nullptr, emit no-ops. */
    explicit RecorderSet(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** New recorder labeled @p name; nullptr when disabled. */
    Recorder *add(std::string name);

    /** The recorders added so far, as capture processes. */
    std::vector<TraceProcess> processes() const;

  private:
    bool enabled_;
    std::deque<Recorder> recorders_;
    std::vector<std::string> names_;
};

/** Write a multi-process capture. */
void writeChromeTrace(std::ostream &out,
                      const std::vector<TraceProcess> &processes);

/** Write a single-recorder capture. */
void writeChromeTrace(std::ostream &out, const Recorder &rec,
                      const std::string &process_name = "pim");

/**
 * Write a capture to @p path. Returns false (with a message on stderr)
 * if the file cannot be opened or the write fails; prints "trace
 * written to <path>" on success.
 */
bool writeChromeTraceFile(const std::string &path,
                          const std::vector<TraceProcess> &processes);

/**
 * The shared bench/example epilogue behind the --occupancy / --trace
 * knobs: when @p print_occupancy, print one occupancy table per
 * process on @p out (titled "<title_prefix><process name>"); when
 * @p trace_path is non-empty, write all processes as one multi-process
 * Chrome capture. Returns false if the trace file cannot be written.
 */
bool emitReports(std::ostream &out,
                 const std::vector<TraceProcess> &processes,
                 bool print_occupancy, const std::string &trace_path,
                 const std::string &title_prefix = "Occupancy: ");

/** emitReports over a RecorderSet; a disabled set is a successful
 *  no-op, so callers need no enabled() guard. */
bool emitReports(std::ostream &out, const RecorderSet &recorders,
                 bool print_occupancy, const std::string &trace_path,
                 const std::string &title_prefix = "Occupancy: ");

/**
 * emitReports with metrics: pairs each registry of @p metrics with the
 * recorder of the same name (name-matched add() calls), so a written
 * capture carries the run's counter tracks beside its spans, prints
 * each registry's summary tables when @p print_metrics (--metrics),
 * and prints occupancy tables as before. Disabled sets no-op
 * independently; registries without a recorder become metrics-only
 * processes.
 */
bool emitReports(std::ostream &out, const RecorderSet &recorders,
                 const telemetry::MetricSet &metrics,
                 bool print_occupancy, bool print_metrics,
                 const std::string &trace_path,
                 const std::string &title_prefix = "Occupancy: ");

} // namespace pim::trace

#endif // PIM_TRACE_CHROME_TRACE_HH

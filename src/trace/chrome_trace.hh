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

#include "telemetry/registry.hh"
#include "trace/trace.hh"

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
    Recorder *recorder = nullptr;
    telemetry::Registry *metrics = nullptr;
};

/**
 * The observers of a multi-run bench: per run, one recorder when
 * tracing is on and one metrics registry when metrics are on, with
 * stable addresses. A run attaches both to the queue it drives (or
 * hands them to a standalone runner's config). The standard shape is
 *
 *   trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
 *   const trace::TraceProcess run = obs.add(run_name);
 *   cfg.recorder = run.recorder;     // nullptr when tracing is off
 *   cfg.metrics = run.metrics;       // nullptr when metrics are off
 *   ...
 *   if (!trace::emitReports(std::cout, obs, knobs.occupancy,
 *                           knobs.metrics, knobs.tracePath))
 *       return 1;
 */
class ObserverSet
{
  public:
    ObserverSet(bool trace, bool metrics) : trace_(trace), metrics_(metrics)
    {
    }

    /** True if add() creates registries. */
    bool metricsEnabled() const { return metrics_; }

    /** Start run @p name: its process, with a new recorder and a new
     *  registry (each null when its output is off). */
    TraceProcess add(std::string name);

    /** Every run added so far, in add() order. */
    const std::vector<TraceProcess> &processes() const { return procs_; }

  private:
    bool trace_;
    bool metrics_;
    std::deque<Recorder> recorders_;
    std::deque<telemetry::Registry> registries_;
    std::vector<TraceProcess> procs_;
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
 * The bench/example epilogue behind --occupancy, --metrics and --trace,
 * over every run of @p obs: when @p print_occupancy, one occupancy table
 * per traced run on @p out (titled "<title_prefix><run name>", plus the
 * per-tenant table when spans carry tenants); when @p print_metrics,
 * each registry's summary tables; when @p trace_path is non-empty, all
 * runs as one multi-process Chrome capture, spans beside counter
 * tracks. Returns false if the trace file cannot be written.
 */
bool emitReports(std::ostream &out, const ObserverSet &obs,
                 bool print_occupancy, bool print_metrics,
                 const std::string &trace_path,
                 const std::string &title_prefix = "Occupancy: ");

} // namespace pim::trace

#endif // PIM_TRACE_CHROME_TRACE_HH

/**
 * @file
 * Bench-side metrics export: writeBenchJson() renders a bench's --json
 * document, with the registries of a trace::ObserverSet as its
 * "metrics" block. The standard shape is
 *
 *   trace::ObserverSet obs(knobs.wantsTrace(), knobs.wantsMetrics());
 *   cfg.metrics = obs.add(run_name).metrics;    // nullptr when off
 *   ...
 *   telemetry::writeBenchJson(knobs.jsonPath, "name", &obs,
 *                             [&](util::JsonWriter &j) { ... });
 *
 * trace::emitReports() prints the same registries' summary tables
 * (--metrics).
 */

#ifndef PIM_TELEMETRY_EXPORT_HH
#define PIM_TELEMETRY_EXPORT_HH

#include <functional>
#include <string>

namespace pim::trace {
class ObserverSet;
}

namespace pim::util {
class JsonWriter;
}

namespace pim::telemetry {

/**
 * Write a bench's --json document to @p path: one object holding
 * "bench": @p bench, the members @p fields writes, and last — only
 * when @p obs is non-null and has metrics enabled, so metric-free
 * BENCH json stays byte-identical — a "metrics" member with one object
 * per registry, keyed by its run name. The stream is flushed and
 * checked; on failure "cannot open <path>" or "write failed: <path>"
 * goes to stderr. @return true if the whole document was written.
 */
bool writeBenchJson(const std::string &path, const std::string &bench,
                    const trace::ObserverSet *obs,
                    const std::function<void(util::JsonWriter &)> &fields);

} // namespace pim::telemetry

#endif // PIM_TELEMETRY_EXPORT_HH

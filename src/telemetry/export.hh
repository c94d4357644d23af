/**
 * @file
 * Bench-side metrics plumbing, mirroring trace::RecorderSet: a
 * MetricSet hands out named registries only when metrics were
 * requested (--metrics, or --trace so counter tracks land in the
 * capture), and the emit helpers render every registry as util::Table
 * summaries and as the "metrics" block of a BENCH json. The standard
 * shape is
 *
 *   telemetry::MetricSet metrics(knobs.metrics || knobs.wantsTrace());
 *   cfg.metrics = metrics.add(run_name);        // nullptr when off
 *   ...
 *   telemetry::printMetrics(std::cout, metrics, knobs.metrics);
 *   telemetry::writeBenchJson(knobs.jsonPath, "name", &metrics,
 *                             [&](util::JsonWriter &j) { ... });
 */

#ifndef PIM_TELEMETRY_EXPORT_HH
#define PIM_TELEMETRY_EXPORT_HH

#include <deque>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "telemetry/registry.hh"

namespace pim::util {
class JsonWriter;
}

namespace pim::telemetry {

/** Named registries for a multi-configuration bench. */
class MetricSet
{
  public:
    /** @param enabled false = add() returns nullptr, emit no-ops. */
    explicit MetricSet(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }

    /** New registry labeled @p name; nullptr when disabled. */
    Registry *add(std::string name);

    /** The registry labeled @p name (nullptr if absent/disabled). */
    const Registry *find(const std::string &name) const;

    struct Entry
    {
        std::string name;
        const Registry *registry;
    };

    /** The registries added so far, in add() order. */
    std::vector<Entry> entries() const;

  private:
    bool enabled_;
    std::deque<Registry> registries_;
    std::vector<std::string> names_;
};

/**
 * Print each registry's summary tables on @p out when
 * @p print_tables; a disabled set is a silent no-op.
 */
void printMetrics(std::ostream &out, const MetricSet &metrics,
                  bool print_tables);

/**
 * Write a bench's --json document to @p path: one object holding
 * "bench": @p bench, the members @p fields writes, and last — only
 * when @p metrics is non-null and enabled, so metric-free BENCH json
 * stays byte-identical — a "metrics" member with one object per
 * registry, keyed by its add() name. The stream is flushed and
 * checked; on failure "cannot open <path>" or "write failed: <path>"
 * goes to stderr. @return true if the whole document was written.
 */
bool writeBenchJson(const std::string &path, const std::string &bench,
                    const MetricSet *metrics,
                    const std::function<void(util::JsonWriter &)> &fields);

} // namespace pim::telemetry

#endif // PIM_TELEMETRY_EXPORT_HH

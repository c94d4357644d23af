/**
 * @file
 * The benchmark's metric catalogue and result line. Every metric the
 * benchmark can print is declared once here, with its unit; a Report
 * refuses names outside its catalogue, so the printed names and the
 * names in BENCHMARK.json can be checked against one list
 * (perfbench --list-metrics).
 */

#ifndef PERFBENCH_REPORT_HH
#define PERFBENCH_REPORT_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One catalogued metric. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** Metrics of the untraced run (printed with --trace 0). */
const std::vector<MetricDef> &endToEndMetrics();

/** Metrics of the traced run (printed with --trace 1). */
const std::vector<MetricDef> &perLayerMetrics();

/** Unit of a catalogued metric of either list ("" if unknown). */
std::string unitOf(const std::string &name);

/** Metric values keyed by catalogued name. */
class Report
{
  public:
    /** @p zero_fill starts every metric at 0 (a layer the workload does
     *  not exercise reads 0); otherwise each must be set explicitly. */
    Report(const std::vector<MetricDef> &defs, bool zero_fill);

    /** Set a catalogued metric; fatal for an unknown name. */
    void set(const std::string &name, double value);

    /** Names that are still unset or not finite. */
    std::vector<std::string> invalid() const;

    /**
     * The result line: {"correct", "attempted", "failed", "metrics":
     * {name: {"value", "unit"}}}, values with full precision.
     */
    void writeResultLine(std::ostream &out, bool correct, uint64_t attempted,
                         uint64_t failed) const;

    /** Aligned "name value unit" table for people reading the log. */
    void writeTable(std::ostream &out) const;

  private:
    const std::vector<MetricDef> &defs_;
    std::map<std::string, double> values_;
};

} // namespace perfbench

#endif // PERFBENCH_REPORT_HH

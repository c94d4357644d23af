/**
 * @file
 * Lightweight statistics helpers used by the benchmark harnesses:
 * exact percentiles from retained samples and the geometric mean.
 * Streaming distributions live in telemetry/metrics.hh.
 */

#ifndef PIM_UTIL_STATS_HH
#define PIM_UTIL_STATS_HH

#include <cstddef>
#include <vector>

namespace pim::util {

/**
 * Sample reservoir with exact percentile queries.
 *
 * Stores all samples (the experiments here generate at most a few million
 * events) and sorts lazily on the first percentile query.
 */
class Percentile
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Exact p-th percentile, p in [0, 100]. Returns 0 if empty. */
    double percentile(double p) const;

    /** Convenience accessors. */
    double p50() const { return percentile(50.0); }
    double p95() const { return percentile(95.0); }
    double p99() const { return percentile(99.0); }

    /** Number of samples. */
    size_t count() const { return samples_.size(); }

    /** Mean of all samples; 0 if empty. */
    double mean() const;

    /** Access to the raw (unsorted) samples, e.g. for time series plots. */
    const std::vector<double> &samples() const { return samples_; }

    /** Drop all samples. */
    void reset();

  private:
    mutable std::vector<double> samples_;
    mutable bool sorted_ = true;
};

/** Geometric mean of a vector of positive values; 0 if empty. */
double geomean(const std::vector<double> &xs);

} // namespace pim::util

#endif // PIM_UTIL_STATS_HH

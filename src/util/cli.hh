/**
 * @file
 * Minimal command-line flag parsing for examples and bench binaries.
 * Flags take the form --name=value or --name value; unknown flags are a
 * fatal error so typos never silently change an experiment.
 */

#ifndef PIM_UTIL_CLI_HH
#define PIM_UTIL_CLI_HH

#include <climits>
#include <cstdint>
#include <map>
#include <string>

namespace pim::util {

/** Parsed command line with typed accessors and defaults. */
class Cli
{
  public:
    /**
     * Parse argv. @param known comma-separated list of accepted flag
     * names; pass "" to accept anything (used by tests).
     */
    Cli(int argc, char **argv, const std::string &known = "");

    /** True if --name was given. */
    bool has(const std::string &name) const;

    /** String flag with default. */
    std::string get(const std::string &name, const std::string &def) const;

    /** Integer flag with default; a non-integer value is fatal. */
    int64_t getInt(const std::string &name, int64_t def) const;

    /**
     * Integer flag with default, enforcing @p min <= value <= @p max;
     * a violation is fatal. The default bound is the largest value an
     * unsigned count can hold, so a huge or negative count is rejected
     * instead of wrapping.
     */
    int64_t getCount(const std::string &name, int64_t def, int64_t min,
                     int64_t max = UINT_MAX) const;

    /** Floating-point flag with default; a non-numeric or non-finite
     *  value is fatal. */
    double getDouble(const std::string &name, double def) const;

    /** Boolean flag: bare --name, or =true/=false/=1/=0; any other
     *  value is fatal. */
    bool getBool(const std::string &name, bool def) const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * The shared experiment knobs of the figure benchmarks
 * (--dpus/--sample/--tasklets/--threads/--json/--trace/--occupancy/
 * --metrics and the fault flags), so every bench parses them
 * identically. parseBenchKnobs reads only the flags given; each bench
 * lists in its Cli exactly the flags it honours, so a knob it ignores
 * is an unknown flag there, not a silent no-op.
 */
struct BenchKnobs
{
    /** Logical system size (--dpus). */
    unsigned dpus = 512;
    /** Materialized sample DPUs, 0 = all (--sample). */
    unsigned sample = 2;
    /** Tasklets per DPU (--tasklets). */
    unsigned tasklets = 16;
    /** Host worker threads, 0 = PIM_SIM_THREADS/auto (--threads). */
    unsigned threads = 0;
    /** Machine-readable output path (--json); empty = none. */
    std::string jsonPath;
    /** Chrome/Perfetto trace output path (--trace); empty = none. */
    std::string tracePath;
    /** Print per-lane occupancy breakdowns (--occupancy). */
    bool occupancy = false;
    /** Collect and print runtime metrics summaries (--metrics):
     *  counters, latency histograms, SLO attainment. Metrics are also
     *  collected whenever tracing is on (wantsMetrics()), so counter
     *  tracks land in every written capture. */
    bool metrics = false;
    /**
     * Fault injection (--fault-seed/--mtbf/--fault-spec). The raw
     * spec string is carried here and parsed by
     * fault::FaultSpec::fromKnobs(faultSpec, mtbf) — util cannot
     * depend on the fault module — which is fatal on invalid specs.
     * mtbf is the rank-failure MTBF convenience flag (simulated
     * seconds, 0 = off); faultSpec is the full key=value spec.
     */
    uint64_t faultSeed = 23;
    double mtbf = 0.0;
    std::string faultSpec;

    /** True if either tracing output was requested. */
    bool
    wantsTrace() const
    {
        return !tracePath.empty() || occupancy;
    }

    /** True if any fault-injection flag was set. */
    bool
    wantsFaults() const
    {
        return mtbf > 0.0 || !faultSpec.empty();
    }

    /** True if a metrics registry should be attached: --metrics, or
     *  any tracing output (counter tracks ride in the capture). */
    bool
    wantsMetrics() const
    {
        return metrics || wantsTrace();
    }
};

/**
 * Read the shared knobs from @p cli over per-bench @p defaults.
 * Validates what it reads: --dpus/--tasklets must be >= 1 and --threads
 * must be a positive integer (omit it — or set PIM_SIM_THREADS — for
 * the automatic thread count), and none of the three nor --sample may
 * exceed UINT_MAX; violations are fatal, consistent with the
 * unknown-flag policy.
 */
BenchKnobs parseBenchKnobs(const Cli &cli,
                           const BenchKnobs &defaults = {});

} // namespace pim::util

#endif // PIM_UTIL_CLI_HH

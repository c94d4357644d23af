/**
 * @file
 * Fault-tolerance study of the disaggregated LLM serving pipeline:
 * sweep the rank-failure MTBF and compare, at every point, recovery
 * (failed ranks replaced from the spare pool, affected KV re-shipped
 * over the double-buffered scatter path, in-flight requests
 * re-admitted) against a no-recovery baseline that sheds the affected
 * requests (fault::FaultPolicy::Drop).
 *
 * Every run — including the fault-free reference — serves on the same
 * numRanks - spareRanks partition (the reference uses an armed-but-
 * never-firing plan), so goodput / availability / tail-latency
 * inflation isolate the cost of the faults themselves, not of the
 * held-back spares. Reported per point:
 *
 *   - goodput (tokens actually decoded per second) and completed vs
 *     lost requests,
 *   - availability (1 - unrepaired-failure time / makespan),
 *   - p99 TTFT / TPOT inflation over the fault-free reference (lost
 *     TPOT steps count against the SLO: a recovered request's gap
 *     stays in its percentile trace),
 *   - recovery traffic (KV re-shipped to replacements) and mean
 *     time-to-repair.
 *
 * Deterministic in (--fault-seed, config) for any --threads /
 * PIM_SIM_THREADS value. `--mtbf` narrows the sweep to one point;
 * `--fault-spec` layers extra fault classes (transient transfer
 * glitches, degraded ranks, hangs) over every swept point. CI
 * smoke-runs this as BENCH_fault_tolerance.json.
 */

#include <iostream>
#include <string>
#include <vector>

#include "fault/fault_plan.hh"
#include "telemetry/export.hh"
#include "trace/chrome_trace.hh"
#include "util/cli.hh"
#include "util/json.hh"
#include "util/table.hh"
#include "workloads/llm/serving_engine.hh"

using namespace pim;
using namespace pim::workloads::llm;

namespace {

/** An MTBF so far beyond the plan horizon that no failure ever fires:
 *  the fault-free reference still runs the full fault harness (same
 *  spare pool, same partition, same injector hooks). */
constexpr double kNeverMtbfSec = 1e30;

struct Point
{
    double mtbfSec;     ///< rank-failure MTBF (kNeverMtbfSec = none)
    fault::FaultPolicy policy;
    ServingResult r;
};

ServingResult
runPoint(const ServingConfig &base, const util::BenchKnobs &knobs,
         const fault::FaultSpec &extra, double mtbf, fault::FaultPolicy policy,
         unsigned spare_ranks, telemetry::Registry *metrics)
{
    ServingEngineConfig ecfg;
    ecfg.base = base;
    ecfg.base.metrics = metrics;
    ecfg.mode = ServingMode::Disaggregated;
    ecfg.simThreads = knobs.threads;
    ecfg.faultSpec = extra;
    ecfg.faultSpec.rankMtbfSec = mtbf;
    ecfg.faultSeed = knobs.faultSeed;
    ecfg.faultPolicy = policy;
    ecfg.spareRanks = spare_ranks;
    const ServingScheme scheme{core::AllocatorKind::PimMallocHwSw};
    return ServingEngine(scheme, ecfg).run();
}

double
inflationPct(double ref, double v)
{
    return ref > 0 ? (v - ref) / ref * 100.0 : 0.0;
}

std::string
mtbfLabel(double mtbf)
{
    return mtbf >= kNeverMtbfSec ? "none"
                                 : util::Table::num(mtbf, 1) + " s";
}

const char *
policyName(fault::FaultPolicy policy)
{
    return policy == fault::FaultPolicy::Recover ? "Recover" : "Drop";
}

} // namespace

int
main(int argc, char **argv)
{
    util::Cli cli(argc, argv,
                  "dpus,tasklets,threads,json,trace,occupancy,metrics,"
                  "fault-seed,mtbf,fault-spec,requests,rate,spare-ranks");
    // Default seed chosen so the default sweep's deaths land on busy
    // decode ranks (KV re-ship, request shedding) instead of already-
    // drained prefill ranks; --fault-seed overrides.
    util::BenchKnobs defs;
    defs.faultSeed = 7;
    const util::BenchKnobs knobs = util::parseBenchKnobs(cli, defs);

    ServingConfig base;
    base.numDpus = knobs.dpus;
    base.allocTasklets = knobs.tasklets;
    base.numRequests =
        static_cast<unsigned>(cli.getCount("requests", 30, 1));
    base.arrivalRatePerSec = cli.getDouble("rate", base.arrivalRatePerSec);
    const unsigned spare_ranks =
        static_cast<unsigned>(cli.getCount("spare-ranks", 4, 0));

    // Extra fault classes (--fault-spec) ride along at every swept
    // point; --mtbf in the spec itself would fight the sweep, so the
    // sweep owns the rank-failure rate.
    const fault::FaultSpec extra =
        fault::FaultSpec::fromKnobs(knobs.faultSpec, 0.0);

    // Harsher left to right. --mtbf narrows the sweep to one point.
    std::vector<double> sweep{8.0, 4.0, 2.0};
    if (knobs.mtbf > 0.0)
        sweep = {knobs.mtbf};

    // No span recorders here; a --trace capture carries the per-point
    // counter tracks alone.
    trace::ObserverSet obs(/*trace=*/false, knobs.wantsMetrics());

    const ServingResult ref = runPoint(base, knobs, extra, kNeverMtbfSec,
                                       fault::FaultPolicy::Recover, spare_ranks,
                                       obs.add("reference").metrics);

    std::vector<Point> points;
    for (const double mtbf : sweep) {
        for (const fault::FaultPolicy policy :
             {fault::FaultPolicy::Recover, fault::FaultPolicy::Drop}) {
            const std::string name =
                mtbfLabel(mtbf) + "/" + policyName(policy);
            points.push_back({mtbf, policy,
                              runPoint(base, knobs, extra, mtbf, policy,
                                       spare_ranks,
                                       obs.add(name).metrics)});
        }
    }

    util::Table tbl("Fault tolerance: recovery vs request shedding "
                    "under rank failures (fault-free reference on the "
                    "same partition)");
    tbl.setHeader({"MTBF", "Policy", "Done", "Lost", "Goodput (tok/s)",
                   "Avail %", "TTFT p99 infl %", "TPOT p99 infl %",
                   "Recovery (MB)", "MTTR (ms)", "Failures"});
    auto addRow = [&](const char *policy_name, double mtbf,
                      const ServingResult &r) {
        tbl.addRow({mtbfLabel(mtbf), policy_name,
                    util::Table::num(uint64_t{r.completedRequests}),
                    util::Table::num(uint64_t{r.lostRequests}),
                    util::Table::num(r.throughputTokensPerSec, 0),
                    util::Table::num(r.availability * 100.0, 2),
                    util::Table::num(
                        inflationPct(ref.ttftP99Ms, r.ttftP99Ms), 1),
                    util::Table::num(
                        inflationPct(ref.tpotP99Ms, r.tpotP99Ms), 1),
                    util::Table::num(
                        static_cast<double>(r.recoveryBytes) / 1e6, 1),
                    util::Table::num(r.mttrMeanSec * 1e3, 1),
                    util::Table::num(uint64_t{r.rankFailures})});
    };
    addRow("reference", kNeverMtbfSec, ref);
    for (const Point &p : points)
        addRow(policyName(p.policy), p.mtbfSec, p.r);
    tbl.print(std::cout);
    std::cout
        << "\nExpected shape: Recover completes every request at every "
           "MTBF (goodput dips only by re-shipped KV and re-decoded "
           "steps), while Drop sheds the requests resident on each "
           "failed rank; availability and tail inflation worsen as the "
           "MTBF shrinks.\n";

    if (!knobs.jsonPath.empty()) {
        const auto fields = [&](util::JsonWriter &j) {
            j.key("dpus").value(knobs.dpus);
            j.key("requests").value(base.numRequests);
            j.key("arrival_rate_per_sec").value(base.arrivalRatePerSec);
            j.key("fault_seed").value(knobs.faultSeed);
            j.key("spare_ranks").value(spare_ranks);
            auto emit = [&](const char *policy_name, double mtbf,
                            const ServingResult &r) {
                j.beginObject();
                j.key("mtbf_sec").value(
                    mtbf >= kNeverMtbfSec ? 0.0 : mtbf);
                j.key("policy").value(policy_name);
                j.key("completed_requests").value(r.completedRequests);
                j.key("lost_requests").value(r.lostRequests);
                j.key("lost_steps").value(r.lostSteps);
                j.key("goodput_tokens_per_sec")
                    .value(r.throughputTokensPerSec);
                j.key("availability").value(r.availability);
                j.key("ttft_p99_ms").value(r.ttftP99Ms);
                j.key("ttft_p99_inflation_pct")
                    .value(inflationPct(ref.ttftP99Ms, r.ttftP99Ms));
                j.key("tpot_p99_ms").value(r.tpotP99Ms);
                j.key("tpot_p99_inflation_pct")
                    .value(inflationPct(ref.tpotP99Ms, r.tpotP99Ms));
                j.key("recovery_bytes").value(r.recoveryBytes);
                j.key("mttr_mean_sec").value(r.mttrMeanSec);
                j.key("rank_failures").value(r.rankFailures);
                j.key("makespan_sec").value(r.makespanSec);
                j.endObject();
            };
            j.key("reference");
            emit("reference", kNeverMtbfSec, ref);
            j.key("sweep").beginArray();
            for (const Point &p : points)
                emit(policyName(p.policy), p.mtbfSec, p.r);
            j.endArray();
        };
        if (!telemetry::writeBenchJson(
                knobs.jsonPath, "fault_tolerance", &obs, fields))
            return 1;
        std::cout << "\nJSON written to " << knobs.jsonPath << "\n";
    }

    if (!trace::emitReports(std::cout, obs, knobs.occupancy,
                            knobs.metrics, knobs.tracePath))
        return 1;
    return 0;
}

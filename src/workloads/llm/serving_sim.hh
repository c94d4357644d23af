/**
 * @file
 * Continuous-batching LLM serving simulator (the LLMServingSim
 * substitute used for Fig 18). Requests arrive by a Poisson process and
 * are decoded in lockstep steps; each step's latency combines the
 * xPU-side FC time, the PIM-side attention time (bandwidth-bound on the
 * per-DPU KV slices), and the KV-cache allocation overhead of the
 * scheme under test. Allocation latency per 512 B block is calibrated
 * by running the actual allocator microbenchmark on the DPU simulator
 * (memoized — see calibratedAllocLatency in serving_engine.hh).
 *
 * Reported metrics match the paper: token throughput and TPOT
 * (time-per-output-token) percentiles.
 *
 * runServing() is a thin facade pinning the Lockstep mode of
 * workloads::llm::ServingEngine, which also offers a Disaggregated
 * mode: a rank-partitioned prefill/decode pipeline on the command
 * queue with double-buffered KV shipping (see serving_engine.hh).
 */

#ifndef PIM_WORKLOADS_LLM_SERVING_SIM_HH
#define PIM_WORKLOADS_LLM_SERVING_SIM_HH

#include <optional>

#include "core/allocator_factory.hh"
#include "workloads/llm/llm_config.hh"

namespace pim::trace {
class Recorder;
}

namespace pim::telemetry {
class Registry;
}

namespace pim::workloads::llm {

/** KV-cache management scheme of one Fig 18 bar group. */
struct ServingScheme
{
    /** Empty = static pre-allocation; else the dynamic allocator kind. */
    std::optional<core::AllocatorKind> allocator;

    /** Display name. */
    const char *name() const;
};

/** Serving experiment parameters (defaults reproduce the Fig 18 trace). */
struct ServingConfig
{
    /** Trace: 100 requests at 10 req/s, 128-token prompts, 256 outputs. */
    unsigned numRequests = 100;
    double arrivalRatePerSec = 10.0;
    unsigned promptTokens = 128;
    unsigned outputTokens = 256;

    /** System. */
    unsigned numDpus = 512;
    LlmModelConfig model{};
    RequestLengthConfig lengths{}; ///< maxSeqLen bounds static reserve

    /**
     * Tokens a PAISE-style static scheme reserves per request slot: the
     * model's maximum context length (Llama-2: 4096), as opposed to the
     * tighter ShareGPT cap used by the Fig 4(b) capacity study.
     */
    unsigned staticReserveTokens = 4096;

    /** Per-DPU MRAM streaming bandwidth for attention (bytes/s). */
    double mramBandwidth = 700e6;
    /** xPU FC-layer time per decode step (batch-amortized). */
    double fcStepSeconds = 2.0e-3;
    /** Fixed per-step overhead (kernel launch, host sync). */
    double stepOverheadSeconds = 1.0e-3;
    /** Tasklets per DPU servicing KV allocations. */
    unsigned allocTasklets = 16;
    /** KV growth granularity (paper: 512 B). */
    uint32_t kvBlockBytes = 512;

    /** Trace seed. */
    uint64_t seed = 11;

    /**
     * Observers the standalone runners (runServing, ServingEngine::run)
     * attach to the queue they build (nullptr = off). A
     * DisaggServingTask on a caller's queue ignores both and uses that
     * queue's recorder and registry.
     *
     * recorder: span recorder fed by the serving queue; lockstep decode
     * steps appear as host spans labeled "step b<batch>", idle gaps as
     * "wait:arrival".
     * metrics: queue counters and utilization series,
     * "serving.tpot_sec"/"serving.ttft_sec" latency histograms, and —
     * when the SLO targets below are set — per-run attainment under
     * "serving.tpot"/"serving.ttft". With a registry attached the
     * disaggregated-mode percentiles come from the same histograms the
     * registry exports, so table and JSON always agree.
     */
    trace::Recorder *recorder = nullptr;
    telemetry::Registry *metrics = nullptr;
    /** TTFT / TPOT SLO targets in seconds (0 = no SLO declared). */
    double sloTtftSec = 0.0;
    double sloTpotSec = 0.0;
};

/** Serving outcome. */
struct ServingResult
{
    double throughputTokensPerSec = 0.0;
    double tpotP50Ms = 0.0;
    double tpotP95Ms = 0.0;
    double tpotP99Ms = 0.0;
    double makespanSec = 0.0;
    unsigned maxBatchLimit = 0;    ///< memory-imposed batch bound
    unsigned peakBatchObserved = 0;
    double allocSecPerBlock = 0.0; ///< calibrated allocator latency

    /** Disaggregated mode only (all zero in lockstep mode). */
    double ttftP50Ms = 0.0;      ///< time-to-first-token percentiles
    double ttftP95Ms = 0.0;      ///<   (arrival → first decoded token)
    double ttftP99Ms = 0.0;
    unsigned prefillRanks = 0;   ///< ranks running prefill launches
    unsigned decodeRanks = 0;    ///< ranks running decode attention
    unsigned prefillWaves = 0;   ///< prefill launches issued
    uint64_t kvShippedBytes = 0; ///< KV bytes moved over the bus
    /** Resource work (host + bus + ranks) hidden by pipelining:
     *  max(0, work sum - makespan). */
    double overlapSeconds = 0.0;

    /** Fault injection (all zero/ideal in a fault-free run). */
    unsigned completedRequests = 0; ///< requests fully decoded
    unsigned lostRequests = 0;  ///< requests dropped, never completed
    unsigned lostSteps = 0;     ///< failed decode steps (count vs SLO)
    unsigned rankFailures = 0;  ///< rank deaths inside this partition
    uint64_t recoveryBytes = 0; ///< KV re-shipped to replacement ranks
    /** Mean time-to-repair: rank death -> replacement granted and KV
     *  re-ship landed (recovered failures only). */
    double mttrMeanSec = 0.0;
    /** 1 - (time some failure was unrepaired) / makespan. */
    double availability = 1.0;
};

/** Run the serving simulation for one scheme. */
ServingResult runServing(const ServingScheme &scheme,
                         const ServingConfig &cfg);

} // namespace pim::workloads::llm

#endif // PIM_WORKLOADS_LLM_SERVING_SIM_HH

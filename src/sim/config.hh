/**
 * @file
 * DPU hardware configuration, defaulted to the UPMEM-PIM parameters the
 * paper evaluates (Section II-A / Section V): 350 MHz in-order core, up
 * to 24 tasklets sharing a 14-stage "revolver" pipeline with an 11-cycle
 * per-tasklet issue interval, 64 KB WRAM, 64 MB MRAM.
 */

#ifndef PIM_SIM_CONFIG_HH
#define PIM_SIM_CONFIG_HH

#include <cstdint>

namespace pim::sim {

/** Configuration of the per-DPU hardware buddy cache (Section IV-B). */
struct BuddyCacheConfig
{
    /** Number of fully-associative CAM entries, each caching one 4 B
     *  packed metadata word (16 x 4 B = 64 B). */
    unsigned entries = 16;
    /** Access latency in PIM core cycles (paper: 1 cycle). */
    uint32_t accessCycles = 1;
};

/** Static hardware parameters of one DPU. */
struct DpuConfig
{
    /** Local DRAM bank (MRAM) capacity. */
    uint32_t mramBytes = 64u << 20;
    /** Scratchpad (WRAM) capacity. */
    uint32_t wramBytes = 64u << 10;
    /** Hardware thread (tasklet) slots. */
    unsigned maxTasklets = 24;
    /**
     * Minimum issue interval of one tasklet in cycles. The UPMEM pipeline
     * dispatches tasklets round-robin; a single tasklet can issue at most
     * one instruction every `pipelineIssueInterval` cycles, and with T >=
     * that many active tasklets the pipeline is saturated and each
     * tasklet issues every T cycles.
     */
    unsigned pipelineIssueInterval = 11;
    /** Core clock in GHz (UPMEM: 350 MHz). */
    double clockGhz = 0.35;
    /** Fixed cycles to set up one MRAM<->WRAM DMA transfer. */
    uint32_t dmaSetupCycles = 64;
    /** Streaming cost per byte of DMA payload. */
    double dmaCyclesPerByte = 0.5;
    /** Hardware buddy cache (only used by PIM-malloc-HW/SW). */
    BuddyCacheConfig buddyCache{};

    /** Convert a cycle count on this DPU to seconds. */
    double
    cyclesToSeconds(uint64_t cycles) const
    {
        return static_cast<double>(cycles) / (clockGhz * 1e9);
    }

    /** Convert a cycle count on this DPU to microseconds. */
    double
    cyclesToMicros(uint64_t cycles) const
    {
        return static_cast<double>(cycles) / (clockGhz * 1e3);
    }
};

} // namespace pim::sim

#endif // PIM_SIM_CONFIG_HH

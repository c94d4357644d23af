/**
 * @file
 * Timeline-tracing primitives for the command-queue runtime.
 *
 * A trace::Recorder collects *spans* — half-open time intervals on a
 * *lane* — while an experiment runs. Lanes mirror the resources the
 * CommandQueue resolves commands against (the host thread, the shared
 * transfer bus, each DPU rank) plus arbitrary named custom lanes (the
 * per-tasklet spans sim::Dpu emits while a recorder is attached to it).
 *
 * The recorder itself knows nothing about the queue: it is a passive,
 * thread-safe sink at the very bottom of the dependency graph, so core,
 * sim, and the workloads can all feed it. Consumers are the Chrome/
 * Perfetto exporter (chrome_trace.hh) and the occupancy analyzer
 * (occupancy.hh).
 *
 * With no recorder attached the instrumentation points reduce to one
 * null-pointer test per resolved command, so tracing costs nothing when
 * it is off.
 */

#ifndef PIM_TRACE_TRACE_HH
#define PIM_TRACE_TRACE_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pim::trace {

/**
 * Lane encoding: non-negative lanes are the queue's resource timelines
 * (host, bus, rank r); negative lanes are custom lanes allocated by
 * name through Recorder::customLane (tasklet spans, auxiliary series).
 */
inline constexpr int kHostLane = 0;
inline constexpr int kBusLane = 1;

/** Lane of rank @p r. */
constexpr int
rankLane(unsigned r)
{
    return 2 + static_cast<int>(r);
}

/** True if @p lane is a rank lane. */
constexpr bool
isRankLane(int lane)
{
    return lane >= 2;
}

/** Rank of a rank lane. */
constexpr unsigned
rankOfLane(int lane)
{
    return static_cast<unsigned>(lane - 2);
}

/** True if @p lane was allocated by Recorder::customLane. */
constexpr bool
isCustomLane(int lane)
{
    return lane < 0;
}

/** "No event" marker for Span::event / Span::after (== core::kNoEvent). */
inline constexpr int kNoSpanEvent = -1;

/** One recorded interval on a lane. */
struct Span
{
    int lane = kHostLane;
    /** What ran (command label, or a kind name like "memcpy:h2p"). */
    std::string name;
    /** Owning tenant's display name ("" = the default/anonymous
     *  tenant). The key trace::analyzeOccupancy groups per-tenant
     *  busy-time attribution by. */
    std::string tenant;
    /** Start/end in seconds on the trace timeline. */
    double t0 = 0.0;
    double t1 = 0.0;
    /** Payload of transfer spans (0 otherwise). */
    uint64_t bytes = 0;
    /** DPU cycles of launch/tasklet spans (0 otherwise). */
    uint64_t cycles = 0;
    /** Completion Event id of the producing command (kNoSpanEvent if
     *  the span did not come from a queue command). */
    int event = kNoSpanEvent;
    /** Explicit dependency Event of the producing command. */
    int after = kNoSpanEvent;
    /** True for stall/wait intervals (host blocked on a transfer,
     *  idle-until gaps); excluded from occupancy busy time. */
    bool idle = false;

    double
    duration() const
    {
        return t1 - t0;
    }
};

/** Thread-safe span sink of one traced experiment. */
class Recorder
{
  public:
    /** Append one span (asserts t1 >= t0). Safe from any thread. */
    void record(Span s);

    /**
     * Lane id of the custom lane called @p name, allocating it on first
     * use (same name -> same lane). Safe from any thread.
     */
    int customLane(const std::string &name);

    /**
     * Like customLane, but the lane is a *resource* lane: it carries
     * real work of its own (e.g. a tenant's host issue timeline) rather
     * than mirroring work already charged to a rank, so occupancy
     * analysis counts it into the busy-time sum. Allocating the same
     * name through both entry points keeps the stronger (resource)
     * classification. Safe from any thread.
     */
    int resourceLane(const std::string &name);

    /**
     * True if @p lane contributes to the resource busy-time sum: the
     * built-in host/bus/rank lanes always do, custom lanes only when
     * allocated through resourceLane.
     */
    bool isResourceLane(int lane) const;

    /** Rank lanes the producer may use (for display; grows monotonically). */
    void setRankCount(unsigned n);
    unsigned rankCount() const;

    /**
     * Recorded spans, in record order. Not safe to call while other
     * threads are still recording.
     */
    const std::vector<Span> &spans() const { return spans_; }

    size_t spanCount() const;

    /** Largest span end time (0 with no spans). */
    double endSeconds() const;

    /** Drop all spans (custom-lane names are kept). */
    void clear();

    /** Display name of @p lane ("host", "bus", "rank3", custom name). */
    std::string laneName(int lane) const;

    /**
     * Distinct lanes appearing in the recorded spans, in display order:
     * host, bus, ranks ascending, then custom lanes in creation order.
     */
    std::vector<int> lanes() const;

    /** Sort key for display order (host < bus < ranks < customs). */
    static uint64_t laneOrderKey(int lane);

  private:
    int customLaneLocked(const std::string &name, bool resource);

    mutable std::mutex mu_;
    std::vector<Span> spans_;
    std::vector<std::string> customNames_;
    /** Parallel to customNames_: true = counts as a resource lane. */
    std::vector<bool> customResource_;
    unsigned rankCount_ = 0;
};

} // namespace pim::trace

#endif // PIM_TRACE_TRACE_HH

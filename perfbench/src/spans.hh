/**
 * @file
 * In-memory span recording for the benchmark's traced run. Spans are
 * opened only in the benchmark's own files, around its calls into the
 * simulator's modules, so the layer of a span is the module it calls:
 *
 *   alloc — Allocator::malloc / free / init
 *   sim   — Dpu::run
 *   core  — PimSystem construction, CommandQueue enqueue and the
 *           sync / eventSeconds / eventFailed calls that drain it
 *   graph — graph generation and GraphUpdateTask construction / step
 *   llm   — calibratedAllocLatency and DisaggServingTask construction /
 *           step
 *   obs   — telemetry / trace observer calls
 *
 * A span's parent is the innermost span open on the same thread; a
 * span opened on a simulator worker thread (a launch body running
 * during a drain) takes as parent the innermost span open on the
 * thread that created the Tracer, which is the span whose call forced
 * the drain. Recording costs two clock reads and one append to a
 * per-thread buffer; with no Tracer a Span is one pointer test.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <thread>
#include <vector>

namespace perfbench {

/** The simulator module a span's call enters. */
enum class Layer : uint8_t { Alloc, Sim, Core, Graph, Llm, Obs };

inline constexpr size_t kNumLayers = 6;

/** Lower-case layer name ("alloc", "sim", ...). */
const char *layerName(Layer l);

/** One closed span. Times are steady_clock nanoseconds. */
struct SpanRecord
{
    const char *name;
    Layer layer;
    uint32_t iteration;
    uint64_t id;
    uint64_t parent; ///< 0 = root
    int64_t t0;
    int64_t t1;
    uint32_t thread; ///< dense id in order of first span
};

/** Span sink of one traced iteration. Thread-safe. */
class Tracer
{
  public:
    explicit Tracer(uint32_t iteration);
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Every closed span, grouped by thread (call after the run). */
    std::vector<SpanRecord> spans() const;

    /**
     * Self time per layer, in seconds: each span's duration minus the
     * union of its children's intervals, summed by the span's layer.
     * Layers whose spans run in parallel sum to more than wall time.
     */
    std::array<double, kNumLayers> selfSeconds() const;

    /** Write the first @p max_spans spans as tab-separated lines
     *  (header first; a trailing comment counts any left out). */
    void write(std::ostream &out, size_t max_spans) const;

  private:
    friend class Span;

    struct Buffer
    {
        uint32_t thread;
        std::vector<SpanRecord> spans;
        /** Ids of this thread's open spans, innermost last. */
        std::vector<uint64_t> open;
    };

    Buffer &buffer();

    const uint32_t iteration_;
    const uint64_t generation_;
    const std::thread::id owner_;
    std::atomic<uint64_t> nextId_{1};
    /** Innermost span open on the owner thread (parent of spans that
     *  open on worker threads). */
    std::atomic<uint64_t> ownerOpen_{0};
    mutable std::mutex mu_;
    std::vector<std::unique_ptr<Buffer>> buffers_;
};

/** RAII span; inert when constructed with a null Tracer. */
class Span
{
  public:
    Span(Tracer *tracer, const char *name, Layer layer);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *tracer_;
    Tracer::Buffer *buf_ = nullptr;
    const char *name_;
    Layer layer_;
    uint64_t id_ = 0;
    uint64_t parent_ = 0;
    int64_t t0_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH

#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <unordered_map>

namespace perfbench {

namespace {

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Distinguishes Tracers that reuse an address, so a thread's cached
 *  buffer pointer never outlives the Tracer that owns it. */
std::atomic<uint64_t> g_generation{0};

thread_local uint64_t tl_generation = 0;
thread_local void *tl_buffer = nullptr;

} // namespace

const char *
layerName(Layer l)
{
    static const char *const kNames[kNumLayers] = {"alloc", "sim",  "core",
                                                   "graph", "llm", "obs"};
    return kNames[static_cast<size_t>(l)];
}

Tracer::Tracer(uint32_t iteration)
    : iteration_(iteration), generation_(++g_generation),
      owner_(std::this_thread::get_id())
{
}

Tracer::Buffer &
Tracer::buffer()
{
    if (tl_generation != generation_) {
        std::lock_guard<std::mutex> lock(mu_);
        buffers_.push_back(std::make_unique<Buffer>());
        buffers_.back()->thread = static_cast<uint32_t>(buffers_.size() - 1);
        tl_buffer = buffers_.back().get();
        tl_generation = generation_;
    }
    return *static_cast<Buffer *>(tl_buffer);
}

Span::Span(Tracer *tracer, const char *name, Layer layer)
    : tracer_(tracer), name_(name), layer_(layer)
{
    if (tracer_ == nullptr)
        return;
    buf_ = &tracer_->buffer();
    id_ = tracer_->nextId_.fetch_add(1, std::memory_order_relaxed);
    const bool owner = std::this_thread::get_id() == tracer_->owner_;
    if (!buf_->open.empty())
        parent_ = buf_->open.back();
    else if (!owner)
        parent_ = tracer_->ownerOpen_.load(std::memory_order_acquire);
    buf_->open.push_back(id_);
    if (owner)
        tracer_->ownerOpen_.store(id_, std::memory_order_release);
    t0_ = nowNs();
}

Span::~Span()
{
    if (tracer_ == nullptr)
        return;
    const int64_t t1 = nowNs();
    buf_->open.pop_back();
    if (std::this_thread::get_id() == tracer_->owner_) {
        tracer_->ownerOpen_.store(buf_->open.empty() ? 0 : buf_->open.back(),
                                  std::memory_order_release);
    }
    buf_->spans.push_back({name_, layer_, tracer_->iteration_, id_, parent_,
                           t0_, t1, buf_->thread});
}

std::vector<SpanRecord>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<SpanRecord> all;
    for (const auto &b : buffers_)
        all.insert(all.end(), b->spans.begin(), b->spans.end());
    return all;
}

std::array<double, kNumLayers>
Tracer::selfSeconds() const
{
    const std::vector<SpanRecord> all = spans();
    std::unordered_map<uint64_t, std::vector<const SpanRecord *>> children;
    for (const SpanRecord &s : all) {
        if (s.parent != 0)
            children[s.parent].push_back(&s);
    }
    std::array<double, kNumLayers> self{};
    std::vector<std::pair<int64_t, int64_t>> iv;
    for (const SpanRecord &s : all) {
        int64_t covered = 0;
        const auto it = children.find(s.id);
        if (it != children.end()) {
            // Union of the children's intervals, clipped to the span:
            // children on parallel worker threads overlap each other.
            iv.clear();
            for (const SpanRecord *c : it->second)
                iv.emplace_back(std::max(c->t0, s.t0), std::min(c->t1, s.t1));
            std::sort(iv.begin(), iv.end());
            int64_t lo = 0, hi = -1;
            for (const auto &[a, b] : iv) {
                if (b <= a)
                    continue;
                if (a > hi) {
                    if (hi > lo)
                        covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            if (hi > lo)
                covered += hi - lo;
        }
        self[static_cast<size_t>(s.layer)] +=
            static_cast<double>(s.t1 - s.t0 - covered) * 1e-9;
    }
    return self;
}

void
Tracer::write(std::ostream &out, size_t max_spans) const
{
    const std::vector<SpanRecord> all = spans();
    out << "id\tparent\titeration\tlayer\tname\tthread\tt0_ns\tt1_ns\n";
    for (size_t i = 0; i < all.size() && i < max_spans; ++i) {
        const SpanRecord &s = all[i];
        out << s.id << '\t' << s.parent << '\t' << s.iteration << '\t'
            << layerName(s.layer) << '\t' << s.name << '\t' << s.thread
            << '\t' << s.t0 << '\t' << s.t1 << '\n';
    }
    if (all.size() > max_spans)
        out << "# " << all.size() - max_spans << " more spans not written\n";
}

} // namespace perfbench

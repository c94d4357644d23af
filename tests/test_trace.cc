/**
 * @file
 * Tests for the timeline-tracing subsystem: the span recorder, the
 * occupancy analyzer, the CommandQueue instrumentation points (span
 * times must reproduce the queue's interval arithmetic exactly, and
 * resetTimeline must rebase the trace origin so epochs never overlap),
 * and the Chrome trace-event exporter — whose output is parsed back by
 * a minimal JSON reader to prove a capture from the serving workload
 * stays valid trace-event JSON.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/command_queue.hh"
#include "core/design_space.hh"
#include "core/pim_system.hh"
#include "trace/chrome_trace.hh"
#include "trace/occupancy.hh"
#include "trace/trace.hh"
#include "workloads/llm/serving_sim.hh"

using namespace pim;
using namespace pim::trace;

namespace {

Span
mkSpan(int lane, const char *name, double t0, double t1,
       bool idle = false)
{
    Span s;
    s.lane = lane;
    s.name = name;
    s.t0 = t0;
    s.t1 = t1;
    s.idle = idle;
    return s;
}

} // namespace

TEST(Recorder, RecordsAndOrdersLanes)
{
    Recorder rec;
    rec.setRankCount(3);
    const int custom = rec.customLane("dpu0/t0");
    rec.record(mkSpan(rankLane(2), "b", 0.0, 1.0));
    rec.record(mkSpan(kHostLane, "a", 0.0, 0.5));
    rec.record(mkSpan(custom, "t", 0.2, 0.4));
    rec.record(mkSpan(kBusLane, "c", 0.5, 2.0));
    rec.record(mkSpan(rankLane(0), "d", 0.0, 0.25));

    EXPECT_EQ(rec.spanCount(), 5u);
    EXPECT_DOUBLE_EQ(rec.endSeconds(), 2.0);

    // Display order: host, bus, ranks ascending, customs.
    const std::vector<int> lanes = rec.lanes();
    ASSERT_EQ(lanes.size(), 5u);
    EXPECT_EQ(lanes[0], kHostLane);
    EXPECT_EQ(lanes[1], kBusLane);
    EXPECT_EQ(lanes[2], rankLane(0));
    EXPECT_EQ(lanes[3], rankLane(2));
    EXPECT_EQ(lanes[4], custom);

    EXPECT_EQ(rec.laneName(kHostLane), "host");
    EXPECT_EQ(rec.laneName(kBusLane), "bus");
    EXPECT_EQ(rec.laneName(rankLane(2)), "rank2");
    EXPECT_EQ(rec.laneName(custom), "dpu0/t0");

    rec.clear();
    EXPECT_EQ(rec.spanCount(), 0u);
    EXPECT_DOUBLE_EQ(rec.endSeconds(), 0.0);
    // Custom lane names survive a clear.
    EXPECT_EQ(rec.customLane("dpu0/t0"), custom);
}

TEST(Recorder, CustomLaneDedupsByName)
{
    Recorder rec;
    const int a = rec.customLane("x");
    const int b = rec.customLane("y");
    EXPECT_NE(a, b);
    EXPECT_EQ(rec.customLane("x"), a);
    EXPECT_EQ(rec.customLane("y"), b);
    EXPECT_TRUE(isCustomLane(a));
    EXPECT_FALSE(isCustomLane(kHostLane));
    EXPECT_FALSE(isCustomLane(rankLane(0)));
}

TEST(RecorderDeath, BackwardsSpanPanics)
{
    Recorder rec;
    EXPECT_DEATH(rec.record(mkSpan(kHostLane, "bad", 2.0, 1.0)),
                 "ends before it starts");
}

TEST(Occupancy, MergesOverlappingSpansPerLane)
{
    Recorder rec;
    // Overlapping + duplicated busy intervals must union, not sum.
    rec.record(mkSpan(kHostLane, "a", 0.0, 2.0));
    rec.record(mkSpan(kHostLane, "b", 1.0, 3.0));
    rec.record(mkSpan(kHostLane, "c", 1.0, 3.0));
    rec.record(mkSpan(kHostLane, "gap", 5.0, 6.0));
    // Idle spans extend the lane end but never its busy time.
    rec.record(mkSpan(kHostLane, "wait", 6.0, 10.0, /*idle=*/true));

    const OccupancyReport rep = analyzeOccupancy(rec);
    ASSERT_EQ(rep.lanes.size(), 1u);
    EXPECT_DOUBLE_EQ(rep.lanes[0].busySeconds, 4.0); // [0,3] + [5,6]
    EXPECT_DOUBLE_EQ(rep.lanes[0].endSeconds, 10.0);
    EXPECT_DOUBLE_EQ(rep.makespanSeconds, 10.0);
    EXPECT_DOUBLE_EQ(rep.lanes[0].busyFraction, 0.4);
    EXPECT_EQ(rep.lanes[0].spans, 5u);
    EXPECT_EQ(rep.criticalLane, kHostLane);
}

TEST(Occupancy, OverlapAndCriticalLaneAccounting)
{
    Recorder rec;
    rec.record(mkSpan(kHostLane, "h", 0.0, 4.0));
    rec.record(mkSpan(kBusLane, "x", 0.0, 3.0));
    rec.record(mkSpan(rankLane(0), "l", 1.0, 5.0));

    const OccupancyReport rep = analyzeOccupancy(rec);
    EXPECT_DOUBLE_EQ(rep.makespanSeconds, 5.0);
    EXPECT_DOUBLE_EQ(rep.busySumSeconds, 11.0);
    EXPECT_DOUBLE_EQ(rep.overlapSeconds, 6.0);
    EXPECT_EQ(rep.criticalLane, rankLane(0));
    EXPECT_EQ(rep.criticalLaneName, "rank0");

    // The max lane end always equals the makespan, by construction.
    double max_end = 0.0;
    for (const auto &lo : rep.lanes)
        max_end = std::max(max_end, lo.endSeconds);
    EXPECT_DOUBLE_EQ(max_end, rep.makespanSeconds);
}

TEST(Occupancy, StragglerRankDetection)
{
    Recorder rec;
    rec.record(mkSpan(rankLane(0), "l", 0.0, 1.0));
    rec.record(mkSpan(rankLane(1), "l", 0.0, 1.1));
    rec.record(mkSpan(rankLane(2), "l", 0.0, 0.9));
    rec.record(mkSpan(rankLane(3), "straggler", 0.0, 2.5));

    const OccupancyReport rep = analyzeOccupancy(rec);
    EXPECT_NEAR(rep.rankBusyMedianSeconds, 1.05, 1e-12);
    std::map<int, bool> straggler;
    for (const auto &lo : rep.lanes)
        straggler[lo.lane] = lo.straggler;
    EXPECT_FALSE(straggler[rankLane(0)]);
    EXPECT_FALSE(straggler[rankLane(1)]);
    EXPECT_FALSE(straggler[rankLane(2)]);
    EXPECT_TRUE(straggler[rankLane(3)]);
    EXPECT_EQ(rep.criticalLane, rankLane(3));
}

TEST(Occupancy, CustomLanesExcludedFromWorkSum)
{
    Recorder rec;
    // One rank busy the whole time, and 4 tasklet lanes mirroring the
    // same physical work: the work sum must count the rank only, so
    // the overlap figure cannot claim the tasklets ran concurrently
    // with themselves.
    rec.record(mkSpan(rankLane(0), "launch", 0.0, 2.0));
    for (int t = 0; t < 4; ++t)
        rec.record(mkSpan(rec.customLane("dpu0/t" + std::to_string(t)),
                          "tasklet", 0.0, 2.0));

    const OccupancyReport rep = analyzeOccupancy(rec);
    EXPECT_DOUBLE_EQ(rep.makespanSeconds, 2.0);
    EXPECT_DOUBLE_EQ(rep.busySumSeconds, 2.0);
    EXPECT_DOUBLE_EQ(rep.overlapSeconds, 0.0);
    // Per-lane busy stats still cover the custom lanes.
    ASSERT_EQ(rep.lanes.size(), 5u);
    EXPECT_DOUBLE_EQ(rep.lanes.back().busySeconds, 2.0);
}

TEST(Occupancy, IdleOnlyTraceFallsBackToLatestLane)
{
    Recorder rec;
    rec.record(mkSpan(kHostLane, "wait", 0.0, 3.0, /*idle=*/true));
    const OccupancyReport rep = analyzeOccupancy(rec);
    EXPECT_EQ(rep.criticalLane, kHostLane);
    EXPECT_DOUBLE_EQ(rep.makespanSeconds, 3.0);
    EXPECT_DOUBLE_EQ(rep.busySumSeconds, 0.0);
}

TEST(Recorder, RecorderSetAddsAndDisables)
{
    RecorderSet on(true);
    Recorder *a = on.add("first");
    Recorder *b = on.add("second");
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    EXPECT_NE(a, b);
    a->record(mkSpan(kHostLane, "x", 0.0, 1.0));
    const auto procs = on.processes();
    ASSERT_EQ(procs.size(), 2u);
    EXPECT_EQ(procs[0].name, "first");
    EXPECT_EQ(procs[0].recorder, a);
    EXPECT_EQ(procs[1].name, "second");

    RecorderSet off(false);
    EXPECT_EQ(off.add("ignored"), nullptr);
    EXPECT_TRUE(off.processes().empty());
    // A disabled set is a successful emit no-op.
    std::ostringstream os;
    EXPECT_TRUE(emitReports(os, off, true, ""));
    EXPECT_TRUE(os.str().empty());
}

TEST(Occupancy, EmptyRecorder)
{
    Recorder rec;
    const OccupancyReport rep = analyzeOccupancy(rec);
    EXPECT_TRUE(rep.lanes.empty());
    EXPECT_DOUBLE_EQ(rep.makespanSeconds, 0.0);
    EXPECT_DOUBLE_EQ(rep.overlapSeconds, 0.0);
}

namespace {

core::PimSystemConfig
smallSystem(unsigned dpus = 128, unsigned sample = 4)
{
    core::PimSystemConfig cfg;
    cfg.numDpus = dpus;       // 2 ranks of 64
    cfg.sampleDpus = sample;
    cfg.simThreads = 2;
    return cfg;
}

} // namespace

TEST(QueueTracing, CommandsEmitSpansOnTheirLanes)
{
    core::PimSystem sys(smallSystem());
    core::CommandQueue q(sys);
    Recorder rec;
    q.attachRecorder(&rec);
    EXPECT_EQ(q.recorder(), &rec);
    EXPECT_EQ(rec.rankCount(), sys.numRanks());

    q.memcpyAsync(sys.all(), 1 << 20, core::CopyDirection::HostToPim,
                  {.label = "feed"});
    q.launch(sys.all(), 2,
             [](sim::Tasklet &t, unsigned) { t.execute(500); },
             {.label = "kernel"});
    q.hostCompute(64, 10000, {.label = "reduce"});
    const double makespan = q.sync();

    // Copy: one bus span + one span per touched rank, bytes on the bus.
    // Launch: a host issue span + per-rank spans with cycles.
    // HostCompute: one host span.
    const auto &spans = rec.spans();
    size_t bus_spans = 0, rank_spans = 0, host_spans = 0;
    uint64_t bus_bytes = 0;
    uint64_t launch_cycles = 0;
    double max_end = 0.0;
    for (const Span &s : spans) {
        max_end = std::max(max_end, s.t1);
        EXPECT_GE(s.t1, s.t0);
        if (s.lane == kBusLane) {
            ++bus_spans;
            bus_bytes += s.bytes;
        } else if (isRankLane(s.lane)) {
            ++rank_spans;
            if (s.name == "kernel")
                launch_cycles += s.cycles;
        } else if (s.lane == kHostLane) {
            ++host_spans;
        }
    }
    EXPECT_EQ(bus_spans, 1u);
    EXPECT_EQ(rank_spans, 2u * sys.numRanks()); // copy + launch per rank
    EXPECT_EQ(host_spans, 2u); // launch issue + hostCompute
    EXPECT_EQ(bus_bytes, uint64_t{1 << 20} * sys.numDpus());
    EXPECT_GT(launch_cycles, 0u);
    // The trace ends exactly at the queue's makespan.
    EXPECT_DOUBLE_EQ(max_end, makespan);

    // Span intervals reproduce the queue's timelines: each rank's last
    // span ends at that rank's ready time.
    for (unsigned r = 0; r < sys.numRanks(); ++r) {
        double rank_end = 0.0;
        for (const Span &s : spans) {
            if (s.lane == rankLane(r))
                rank_end = std::max(rank_end, s.t1);
        }
        EXPECT_DOUBLE_EQ(rank_end, q.rankReadySeconds(r));
    }

    // Detaching stops recording.
    q.attachRecorder(nullptr);
    EXPECT_EQ(q.recorder(), nullptr);
    const size_t before = rec.spanCount();
    q.hostBusy(1e-3);
    q.sync();
    EXPECT_EQ(rec.spanCount(), before);
}

TEST(QueueTracing, HostWaitForCopyEmitsIdleSpan)
{
    core::PimSystem sys(smallSystem());
    core::CommandQueue q(sys);
    Recorder rec;
    q.attachRecorder(&rec);

    const core::Event copy =
        q.memcpyAsync(sys.all(), 4096, core::CopyDirection::PimToHost);
    q.hostIdleUntil(0.0, {.after = copy});
    q.sync();

    bool saw_wait = false;
    for (const Span &s : rec.spans()) {
        if (s.lane == kHostLane) {
            EXPECT_TRUE(s.idle);
            EXPECT_EQ(s.name, "idle-until");
            saw_wait = true;
        }
    }
    EXPECT_TRUE(saw_wait);

    // Occupancy must not count the wait as host busy time, and the
    // never-busy host must not be attributed the makespan even though
    // its idle wait ends exactly at it — the bus (equal busy to each
    // rank, earlier display order) is the constraining resource.
    const OccupancyReport rep = analyzeOccupancy(rec);
    for (const auto &lo : rep.lanes) {
        if (lo.lane == kHostLane) {
            EXPECT_DOUBLE_EQ(lo.busySeconds, 0.0);
            EXPECT_DOUBLE_EQ(lo.endSeconds, rep.makespanSeconds);
        }
    }
    EXPECT_EQ(rep.criticalLane, kBusLane);
}

TEST(QueueTracing, DependencyEventsAreRecordedOnSpans)
{
    core::PimSystem sys(smallSystem());
    core::CommandQueue q(sys);
    Recorder rec;
    q.attachRecorder(&rec);

    const core::Event e = q.memcpyAsync(
        sys.rank(0), 1024, core::CopyDirection::HostToPim);
    q.launch(sys.rank(0), 1,
             [](sim::Tasklet &t, unsigned) { t.execute(100); },
             {.after = e, .label = "dependent"});
    q.sync();

    bool found = false;
    for (const Span &s : rec.spans()) {
        if (s.name == "dependent" && isRankLane(s.lane)) {
            EXPECT_EQ(s.after, e);
            EXPECT_GT(s.event, e);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(QueueTracing, ResetTimelineRebasesTraceEpoch)
{
    core::PimSystem sys(smallSystem());
    core::CommandQueue q(sys);
    Recorder rec;
    q.attachRecorder(&rec);

    // Epoch 1: a launch and a sync.
    const core::Event old_event = q.launch(
        sys.all(), 1, [](sim::Tasklet &t, unsigned) { t.execute(1000); },
        {.label = "epoch1"});
    const double epoch1 = q.sync();
    const double end1 = rec.endSeconds();
    EXPECT_DOUBLE_EQ(end1, epoch1);

    q.resetTimeline();
    EXPECT_DOUBLE_EQ(q.elapsedSeconds(), 0.0);

    // Epoch 2: depends on a pre-reset Event, which rebased to the new
    // epoch's origin — the host span must start at trace time end1
    // (origin of epoch 2), not at end1 + epoch1.
    q.hostBusy(0.5e-3, {.after = old_event, .label = "epoch2"});
    const double epoch2 = q.sync();

    double epoch2_t0 = -1.0, epoch2_t1 = -1.0;
    for (const Span &s : rec.spans()) {
        if (s.name == "epoch2") {
            epoch2_t0 = s.t0;
            epoch2_t1 = s.t1;
        }
    }
    ASSERT_GE(epoch2_t0, 0.0);
    // Spans of the new epoch start exactly where the old epoch ended:
    // monotonic, gap-free, no overlap with pre-reset spans.
    EXPECT_DOUBLE_EQ(epoch2_t0, end1);
    EXPECT_DOUBLE_EQ(epoch2_t1, end1 + 0.5e-3);
    EXPECT_DOUBLE_EQ(rec.endSeconds(), end1 + epoch2);

    // A second reset stacks another epoch on top.
    q.resetTimeline();
    q.hostBusy(0.25e-3, {.label = "epoch3"});
    q.sync();
    double epoch3_t0 = -1.0;
    for (const Span &s : rec.spans()) {
        if (s.name == "epoch3")
            epoch3_t0 = s.t0;
    }
    EXPECT_DOUBLE_EQ(epoch3_t0, end1 + epoch2);
}

// The ISSUE's acceptance check: in bench_fig06's Overlapped mode the
// per-lane occupancy must attribute the queue makespan to a lane whose
// timeline ends exactly at it.
TEST(DesignSpaceTracing, OverlappedOccupancyMatchesMakespan)
{
    for (const auto strategy :
         {core::DesignStrategy::HostMetaPimExec,
          core::DesignStrategy::PimMetaPimExec,
          core::DesignStrategy::PimMetaHostExec,
          core::DesignStrategy::HostMetaHostExec}) {
        Recorder rec;
        core::DesignSpaceParams p;
        p.numDpus = 128; // 2 ranks
        p.allocsPerDpu = 4;
        p.recorder = &rec;
        const auto r = core::evalStrategy(
            strategy, p, core::ExecutionMode::Overlapped);
        ASSERT_GT(rec.spanCount(), 0u)
            << core::designStrategyName(strategy);

        const OccupancyReport rep = analyzeOccupancy(rec);
        // The traced makespan equals the experiment's makespan...
        EXPECT_NEAR(rep.makespanSeconds, r.makespanSeconds,
                    1e-12 + 1e-9 * r.makespanSeconds)
            << core::designStrategyName(strategy);
        // ...and the max lane end equals the queue makespan, with the
        // critical lane attributed to it.
        double max_end = 0.0;
        double critical_end = 0.0;
        for (const auto &lo : rep.lanes) {
            max_end = std::max(max_end, lo.endSeconds);
            EXPECT_LE(lo.busyFraction, 1.0 + 1e-9);
            if (lo.lane == rep.criticalLane)
                critical_end = lo.endSeconds;
        }
        EXPECT_DOUBLE_EQ(max_end, rep.makespanSeconds);
        EXPECT_DOUBLE_EQ(critical_end, rep.makespanSeconds);
    }
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader (tests only): just enough to
// prove an exported capture parses as strict JSON and has the
// trace-event structure Perfetto expects.
// ---------------------------------------------------------------------------

namespace {

struct JsonValue
{
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;

    const JsonValue &
    at(const std::string &key) const
    {
        static const JsonValue null_value;
        auto it = object.find(key);
        return it == object.end() ? null_value : it->second;
    }
    bool has(const std::string &key) const { return object.count(key); }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : s_(std::move(text)) {}

    /** Parse the full document; fails the test on any syntax error. */
    JsonValue
    parse()
    {
        JsonValue v = value();
        ws();
        EXPECT_EQ(pos_, s_.size()) << "trailing JSON content";
        return v;
    }

  private:
    void
    ws()
    {
        while (pos_ < s_.size()
               && std::isspace(static_cast<unsigned char>(s_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        EXPECT_LT(pos_, s_.size()) << "unexpected end of JSON";
        return pos_ < s_.size() ? s_[pos_] : '\0';
    }

    void
    expect(char c)
    {
        ASSERT_EQ(peek(), c) << "at offset " << pos_;
        ++pos_;
    }

    JsonValue
    value()
    {
        ws();
        switch (peek()) {
          case '{': return object();
          case '[': return array();
          case '"': return string();
          case 't': case 'f': return boolean();
          case 'n': return null();
          default: return number();
        }
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        ws();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            ws();
            JsonValue key = string();
            ws();
            expect(':');
            v.object[key.string] = value();
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        ws();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(value());
            ws();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.type = JsonValue::Type::String;
        expect('"');
        while (pos_ < s_.size() && peek() != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                const char esc = s_[pos_++];
                switch (esc) {
                  case '"': v.string += '"'; break;
                  case '\\': v.string += '\\'; break;
                  case '/': v.string += '/'; break;
                  case 'n': v.string += '\n'; break;
                  case 'r': v.string += '\r'; break;
                  case 't': v.string += '\t'; break;
                  case 'b': v.string += '\b'; break;
                  case 'f': v.string += '\f'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size()) {
                        ADD_FAILURE() << "truncated \\u escape";
                        return v;
                    }
                    const unsigned cp = static_cast<unsigned>(
                        std::stoul(s_.substr(pos_, 4), nullptr, 16));
                    pos_ += 4;
                    // Test captures only use ASCII escapes.
                    v.string += static_cast<char>(cp);
                    break;
                  }
                  default:
                    ADD_FAILURE() << "bad escape \\" << esc;
                }
            } else {
                // Raw control characters are invalid inside strings.
                EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
                v.string += c;
            }
        }
        ++pos_;
        return v;
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.type = JsonValue::Type::Number;
        const size_t start = pos_;
        while (pos_ < s_.size()
               && (std::isdigit(static_cast<unsigned char>(s_[pos_]))
                   || s_[pos_] == '-' || s_[pos_] == '+'
                   || s_[pos_] == '.' || s_[pos_] == 'e'
                   || s_[pos_] == 'E'))
            ++pos_;
        EXPECT_GT(pos_, start) << "expected a number";
        v.number = std::stod(s_.substr(start, pos_ - start));
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.type = JsonValue::Type::Bool;
        if (s_.compare(pos_, 4, "true") == 0) {
            v.boolean = true;
            pos_ += 4;
        } else if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            ADD_FAILURE() << "bad boolean literal at offset " << pos_;
            pos_ = s_.size();
        }
        return v;
    }

    JsonValue
    null()
    {
        if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
        } else {
            ADD_FAILURE() << "bad null literal at offset " << pos_;
            pos_ = s_.size();
        }
        return JsonValue{};
    }

    const std::string s_;
    size_t pos_ = 0;
};

} // namespace

// The ISSUE's exporter acceptance check: a capture from the Fig 18
// serving workload must be valid trace-event JSON with the structure
// Perfetto/chrome://tracing loads.
TEST(ChromeTrace, ServingCaptureParsesAsValidTraceEventJson)
{
    Recorder rec;
    workloads::llm::ServingConfig cfg;
    cfg.numRequests = 5;
    cfg.recorder = &rec;
    workloads::llm::ServingScheme scheme{
        core::AllocatorKind::PimMallocSw};
    const auto result = workloads::llm::runServing(scheme, cfg);
    ASSERT_GT(rec.spanCount(), 0u);

    std::ostringstream os;
    writeChromeTrace(os, rec, "fig18");
    const std::string text = os.str();

    JsonParser parser(text);
    const JsonValue root = parser.parse();
    ASSERT_EQ(root.type, JsonValue::Type::Object);
    EXPECT_EQ(root.at("displayTimeUnit").string, "ms");

    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);
    ASSERT_FALSE(events.array.empty());

    size_t complete_events = 0;
    bool saw_process_name = false;
    bool saw_thread_name = false;
    double last_end_us = 0.0;
    for (const JsonValue &ev : events.array) {
        ASSERT_EQ(ev.type, JsonValue::Type::Object);
        // Every event needs name/ph/pid/tid.
        ASSERT_TRUE(ev.has("name"));
        ASSERT_TRUE(ev.has("ph"));
        ASSERT_TRUE(ev.has("pid"));
        ASSERT_TRUE(ev.has("tid"));
        const std::string &ph = ev.at("ph").string;
        if (ph == "M") {
            saw_process_name |= ev.at("name").string == "process_name";
            saw_thread_name |= ev.at("name").string == "thread_name";
            continue;
        }
        ASSERT_EQ(ph, "X"); // complete events only
        ++complete_events;
        EXPECT_GE(ev.at("ts").number, 0.0);
        EXPECT_GE(ev.at("dur").number, 0.0);
        last_end_us = std::max(
            last_end_us, ev.at("ts").number + ev.at("dur").number);
    }
    EXPECT_TRUE(saw_process_name);
    EXPECT_TRUE(saw_thread_name);
    EXPECT_EQ(complete_events, rec.spanCount());
    // Timestamps are microseconds: the capture ends at the serving
    // makespan.
    EXPECT_NEAR(last_end_us, result.makespanSec * 1e6,
                1e-6 * result.makespanSec * 1e6 + 1e-6);
}

TEST(Occupancy, ReportEmitsValidJson)
{
    Recorder rec;
    rec.setRankCount(2);
    rec.record(mkSpan(kHostLane, "h", 0.0, 1.0));
    rec.record(mkSpan(rankLane(0), "l", 0.5, 3.0));
    rec.record(mkSpan(rankLane(1), "l", 0.5, 1.5));

    std::ostringstream os;
    util::JsonWriter j(os);
    analyzeOccupancy(rec).writeJson(j);
    ASSERT_TRUE(j.complete());

    JsonParser parser(os.str());
    const JsonValue root = parser.parse();
    ASSERT_EQ(root.type, JsonValue::Type::Object);
    EXPECT_DOUBLE_EQ(root.at("makespan_seconds").number, 3.0);
    EXPECT_DOUBLE_EQ(root.at("busy_sum_seconds").number, 4.5);
    EXPECT_DOUBLE_EQ(root.at("overlap_seconds").number, 1.5);
    EXPECT_EQ(root.at("critical_lane").string, "rank0");
    const JsonValue &lanes = root.at("lanes");
    ASSERT_EQ(lanes.type, JsonValue::Type::Array);
    ASSERT_EQ(lanes.array.size(), 3u);
    EXPECT_EQ(lanes.array[0].at("name").string, "host");
    EXPECT_DOUBLE_EQ(lanes.array[1].at("busy_seconds").number, 2.5);
    EXPECT_EQ(lanes.array[1].at("straggler").type,
              JsonValue::Type::Bool);
}

TEST(ChromeTrace, MultiProcessCaptureAndEscaping)
{
    Recorder a;
    a.record(mkSpan(kHostLane, "with \"quotes\"\nand newline", 0.0, 1.0));
    Recorder b;
    b.record(mkSpan(kBusLane, "plain", 0.5, 1.5));

    std::ostringstream os;
    writeChromeTrace(os, {{"proc \"A\"", &a}, {"proc-B", &b}});

    JsonParser parser(os.str());
    const JsonValue root = parser.parse();
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.type, JsonValue::Type::Array);

    std::vector<double> pids;
    bool saw_escaped_name = false;
    for (const JsonValue &ev : events.array) {
        pids.push_back(ev.at("pid").number);
        if (ev.at("ph").string == "X"
            && ev.at("name").string == "with \"quotes\"\nand newline")
            saw_escaped_name = true;
    }
    EXPECT_TRUE(saw_escaped_name);
    EXPECT_NE(std::count(pids.begin(), pids.end(), 1.0), 0);
    EXPECT_NE(std::count(pids.begin(), pids.end(), 2.0), 0);
}

TEST(ChromeTrace, FileWriteFailureReturnsFalse)
{
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "/dev/full is not available";
    Recorder rec;
    rec.record(mkSpan(kHostLane, "h", 0.0, 1.0));
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const bool ok = writeChromeTraceFile("/dev/full", {{"pim", &rec}});
    const std::string out = testing::internal::GetCapturedStdout();
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok);
    EXPECT_EQ(out.find("trace written"), std::string::npos) << out;
    EXPECT_NE(err.find("write failed: /dev/full"), std::string::npos)
        << err;
}

TEST(SimTracing, DpuRecordsPerTaskletSpans)
{
    core::PimSystem sys(core::singleDpuConfig());
    sim::Dpu &dpu = sys.dpu(0);
    Recorder rec;
    dpu.attachTraceRecorder(&rec, /*global_index=*/3);

    dpu.run(4, [](sim::Tasklet &t) { t.execute(100 + 50 * t.id()); });
    EXPECT_EQ(rec.spanCount(), 4u);

    const double makespan1 = dpu.lastElapsedSeconds();
    double max_end = 0.0;
    for (const Span &s : rec.spans()) {
        EXPECT_EQ(s.name, "tasklet");
        EXPECT_TRUE(isCustomLane(s.lane));
        EXPECT_GT(s.cycles, 0u);
        max_end = std::max(max_end, s.t1);
    }
    EXPECT_DOUBLE_EQ(max_end, makespan1);
    EXPECT_EQ(rec.laneName(rec.lanes()[0]).substr(0, 5), "dpu3/");

    // A second run stacks on the DPU-local timeline.
    dpu.run(2, [](sim::Tasklet &t) { t.execute(10); });
    EXPECT_EQ(rec.spanCount(), 6u);
    bool saw_second_run = false;
    for (const Span &s : rec.spans()) {
        if (s.t0 > 0.0) {
            EXPECT_DOUBLE_EQ(s.t0, makespan1);
            saw_second_run = true;
        }
    }
    EXPECT_TRUE(saw_second_run);

    // Detach stops recording.
    dpu.attachTraceRecorder(nullptr);
    dpu.run(1, [](sim::Tasklet &t) { t.execute(10); });
    EXPECT_EQ(rec.spanCount(), 6u);
}

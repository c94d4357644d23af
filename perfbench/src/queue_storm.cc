/**
 * @file
 * queue-storm: per-command orchestration does the work — enqueue, chain
 * build, per-launch Dpu::run set-up and the timeline fold — while DPU
 * simulation is negligible and no allocator runs. A 2048-rank system
 * (one materialized 64 KiB DPU per rank) takes waves that mix
 * full-system launches, single-rank tiny launches, memcpyAsync and
 * scatter copies, with seeded `after` dependencies inside a wave; each
 * wave ends in sync() (a closed loop per wave). No event may fail.
 */

#include <memory>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "spans.hh"
#include "util/rng.hh"
#include "workloads.hh"

namespace perfbench {

using namespace pim;

namespace {

constexpr unsigned kRanks = 2048;
constexpr unsigned kDpusPerRank = 64;
constexpr unsigned kWaves = 12;
constexpr unsigned kFullLaunchesPerWave = 32;
/** An `after` dependency names one of this many preceding commands. */
constexpr unsigned kDepWindow = 256;

} // namespace

QueueStormInputs
makeQueueStormInputs(uint64_t seed)
{
    util::Rng rng = util::Rng(seed).stream("queue-storm");
    QueueStormInputs in;
    for (unsigned w = 0; w < kWaves; ++w) {
        // One command per rank plus the full-system launches, in a
        // seeded order.
        std::vector<StormCommand> wave;
        wave.reserve(kRanks + kFullLaunchesPerWave);
        for (unsigned i = 0; i < kFullLaunchesPerWave; ++i) {
            wave.push_back({StormCommand::Kind::FullLaunch, 0,
                            static_cast<uint32_t>(rng.uniformRange(12, 24)),
                            0, -1, {}});
        }
        for (unsigned r = 0; r < kRanks; ++r) {
            StormCommand c{StormCommand::Kind::RankLaunch, r, 0, 0, -1, {}};
            const double u = rng.uniformReal();
            if (u < 0.45) {
                c.instrs = static_cast<uint32_t>(rng.uniformRange(8, 40));
            } else if (u < 0.8) {
                c.kind = StormCommand::Kind::Copy;
                c.bytes = static_cast<uint32_t>(rng.uniformRange(64, 4096));
            } else {
                c.kind = StormCommand::Kind::Scatter;
                c.scatter.resize(kDpusPerRank);
                for (uint64_t &b : c.scatter)
                    b = rng.uniformRange(0, 1024);
            }
            wave.push_back(std::move(c));
        }
        rng.shuffle(wave);
        for (size_t i = 1; i < wave.size(); ++i) {
            if (rng.bernoulli(0.25)) {
                const size_t span = std::min<size_t>(i, kDepWindow);
                wave[i].after =
                    static_cast<int32_t>(i - 1 - rng.uniformInt(span));
            }
        }
        in.waves.push_back(std::move(wave));
    }
    return in;
}

IterResult
runQueueStorm(const QueueStormInputs &in, const IterConfig &cfg)
{
    IterResult res;
    Tracer *const tr = cfg.tracer;

    const Clock::time_point t_setup = Clock::now();
    core::PimSystemConfig scfg;
    scfg.numDpus = kRanks * kDpusPerRank;
    scfg.dpusPerRank = kDpusPerRank;
    scfg.samplePerRank = true;
    // The launch bodies never touch DPU memory; small backing stores
    // keep thousands of materialized DPUs cheap. (With 1 MiB banks,
    // glibc's dynamic mmap threshold serves every system after the
    // first from reused heap, so calloc zeroes 2 GiB per set-up.)
    scfg.dpuCfg.mramBytes = 64u << 10;
    scfg.dpuCfg.wramBytes = 4u << 10;
    scfg.simThreads = cfg.threads;
    std::unique_ptr<core::PimSystem> sys;
    {
        Span s(tr, "core.PimSystem", Layer::Core);
        sys = std::make_unique<core::PimSystem>(scfg);
    }
    res.layer["core.system_setup_s"] = secondsSince(t_setup);
    core::CommandQueue queue(*sys);
    if (cfg.metrics != nullptr)
        queue.attachMetrics(cfg.metrics);
    if (cfg.recorder != nullptr)
        queue.attachRecorder(cfg.recorder);
    const core::DpuSet all = sys->all();
    std::vector<core::DpuSet> rank_sets;
    rank_sets.reserve(kRanks);
    for (unsigned r = 0; r < kRanks; ++r)
        rank_sets.push_back(sys->rank(r));
    // Per-slot simulation counts: a slot's launches run in order on one
    // worker, so each slot's entry has a single writer.
    std::vector<uint64_t> slot_events(kRanks, 0);
    std::vector<uint64_t> slot_runs(kRanks, 0);
    std::vector<sim::CycleBreakdown> slot_bd(kRanks);
    res.setupSec = secondsSince(t_setup);

    auto program = [&](uint32_t instrs) {
        return [&, instrs](sim::Dpu &dpu, unsigned global) {
            // samplePerRank materializes the first DPU of each rank.
            const unsigned slot = global / kDpusPerRank;
            {
                Span s(tr, "sim.Dpu::run", Layer::Sim);
                dpu.run(1, [&](sim::Tasklet &t) {
                    t.execute(instrs + global % 7);
                });
            }
            slot_events[slot] += dpu.lastSimEvents();
            ++slot_runs[slot];
            slot_bd[slot].merge(dpu.lastBreakdown());
        };
    };

    cfg.edge();
    const Clock::time_point t0 = Clock::now();
    double makespan = 0.0;
    uint64_t enqueued = 0;
    std::vector<core::Event> events;
    for (const std::vector<StormCommand> &wave : in.waves) {
        events.clear();
        for (const StormCommand &c : wave) {
            const core::CommandOptions opts{
                .after = c.after >= 0 ? events[c.after] : core::kNoEvent};
            const core::DpuSet &target =
                c.kind == StormCommand::Kind::FullLaunch ? all
                                                         : rank_sets[c.rank];
            Span s(tr, "core.enqueue", Layer::Core);
            switch (c.kind) {
              case StormCommand::Kind::FullLaunch:
              case StormCommand::Kind::RankLaunch:
                events.push_back(
                    queue.launchProgram(target, program(c.instrs), opts));
                break;
              case StormCommand::Kind::Copy:
                events.push_back(queue.memcpyAsync(
                    target, c.bytes, core::CopyDirection::HostToPim, opts));
                break;
              case StormCommand::Kind::Scatter:
                events.push_back(queue.memcpyScatterAsync(
                    target, c.scatter, core::CopyDirection::HostToPim,
                    opts));
                break;
            }
        }
        enqueued += events.size();
        // The first eventFailed drains the wave; the rest read results.
        {
            Span s(tr, "core.eventFailed", Layer::Core);
            for (const core::Event e : events) {
                if (queue.eventFailed(e)) {
                    ++res.failed;
                    res.error("queue-storm: event " + std::to_string(e)
                              + " failed");
                }
            }
        }
        {
            Span s(tr, "core.sync", Layer::Core);
            makespan = queue.sync();
        }
    }
    res.measuredSec = secondsSince(t0);
    cfg.edge();

    const core::CommandQueue::DrainStats &ds = queue.drainStats();
    res.ops = ds.commands;
    res.attempted = enqueued;
    if (ds.commands != enqueued)
        res.error("queue-storm: " + std::to_string(ds.commands) + " of "
                  + std::to_string(enqueued) + " commands resolved");

    uint64_t sim_events = 0, runs = 0;
    sim::CycleBreakdown bd;
    for (unsigned s = 0; s < kRanks; ++s) {
        sim_events += slot_events[s];
        runs += slot_runs[s];
        bd.merge(slot_bd[s]);
    }
    res.sim["sim_makespan_s"] = makespan;
    res.layer["sim.runs"] = static_cast<double>(runs);
    res.layer["sim.model_events"] = static_cast<double>(sim_events);
    res.layer["sim.host_ns_per_event"] =
        ds.phase1Sec * 1e9 / static_cast<double>(sim_events);
    addBreakdownLayer(res, bd);
    addQueueLayer(res, queue, makespan);
    return res;
}

} // namespace perfbench

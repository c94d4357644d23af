#include "core/command_queue.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "fault/injector.hh"
#include "telemetry/registry.hh"
#include "trace/trace.hh"
#include "util/logging.hh"

namespace pim::core {

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Add @p n to a queue-wide counter and to the tenant's own copy
 *  (null for tenant 0, which owns the plain totals). */
void
countBoth(telemetry::Counter *total, telemetry::Counter *own, uint64_t n)
{
    total->add(n);
    if (own != nullptr)
        own->add(n);
}

} // namespace

CommandQueue::CommandQueue(PimSystem &sys)
    : sys_(sys), rankT_(sys.numRanks(), 0.0)
{
}

TenantId
CommandQueue::addTenant(const std::string &name)
{
    PIM_ASSERT(!name.empty(), "tenant needs a display name");
    const TenantId id = static_cast<TenantId>(hostT_.size());
    hostT_.push_back(0.0);
    tenantNames_.push_back(name);
    return id;
}

void
CommandQueue::attachRecorder(trace::Recorder *rec)
{
    drain();
    rec_ = rec;
    traceEpoch_ = 0.0;
}

void
CommandQueue::attachMetrics(telemetry::Registry *met)
{
    drain();
    met_ = met;
    qm_ = QueueCounters{};
    tenantMet_.clear();
    rankSid_.clear();
    busSid_ = depthSid_ = ranksBusySid_ = -1;
    if (met_ == nullptr)
        return;
    qm_.issued = &met_->counter("queue.commands_issued");
    qm_.resolved = &met_->counter("queue.commands_resolved");
    qm_.failed = &met_->counter("queue.commands_failed");
    qm_.poisoned = &met_->counter("queue.poisoned_deps");
    qm_.busBytes = &met_->counter("queue.bus_bytes");
    qm_.retries = &met_->counter("queue.transfer_retries");
    qm_.simEvents = &met_->counter("queue.sim_events");
    qm_.drainPhase1 = &met_->hostGauge("queue.drain.phase1_sec");
    qm_.drainPhase2 = &met_->hostGauge("queue.drain.phase2_sec");
    qm_.drainCps = &met_->hostGauge("queue.drain.commands_per_sec");
    telemetry::TimelineSampler &smp = met_->sampler();
    busSid_ = smp.series("util:bus");
    depthSid_ = smp.levelSeries("depth:queue");
    ranksBusySid_ = smp.series("ranks_busy");
    rankSid_.reserve(sys_.numRanks());
    for (unsigned r = 0; r < sys_.numRanks(); ++r)
        rankSid_.push_back(smp.series("util:rank" + std::to_string(r)));
    ensureTenantMetrics();
}

void
CommandQueue::ensureTenantMetrics()
{
    telemetry::TimelineSampler &smp = met_->sampler();
    while (tenantMet_.size() < hostT_.size()) {
        const TenantId t = static_cast<TenantId>(tenantMet_.size());
        const std::string &name = tenantNames_[t];
        TenantMetrics tm;
        tm.hostSid = smp.series(t == kDefaultTenant
                                    ? "util:host"
                                    : "util:host:" + name);
        // Tenant 0 has no display name; "default" keeps its busy-rank
        // curve a first-class per-tenant track in single-tenant runs.
        tm.ranksBusySid = smp.series(
            "ranks_busy:" + (name.empty() ? "default" : name));
        if (t != kDefaultTenant) {
            tm.issued =
                &met_->counter("queue.commands_issued:" + name);
            tm.resolved =
                &met_->counter("queue.commands_resolved:" + name);
            tm.failed =
                &met_->counter("queue.commands_failed:" + name);
            tm.poisoned =
                &met_->counter("queue.poisoned_deps:" + name);
            tm.busBytes = &met_->counter("queue.bus_bytes:" + name);
            tm.retries =
                &met_->counter("queue.transfer_retries:" + name);
        }
        tenantMet_.push_back(tm);
    }
}

void
CommandQueue::attachFaultInjector(fault::FaultInjector *inj)
{
    drain();
    inj_ = inj;
    rankDeathTraced_.assign(inj_ != nullptr ? sys_.numRanks() : 0, false);
}

void
CommandQueue::traceRankDeath(unsigned r, double failAtSec)
{
    // One zero-width marker per rank at the death time, so the trace
    // shows *why* the lane goes quiet.
    if (rankDeathTraced_[r])
        return;
    rankDeathTraced_[r] = true;
    if (rec_ == nullptr)
        return;
    trace::Span s;
    s.lane = trace::rankLane(r);
    s.name = "fault:rank-fail";
    s.t0 = s.t1 = traceEpoch_ + failAtSec;
    rec_->record(std::move(s));
}

int
CommandQueue::hostLane(TenantId t) const
{
    // Tenant 0 keeps the classic host lane; registered tenants issue on
    // their own resource lane so co-tenant traces stay readable.
    if (t == kDefaultTenant)
        return trace::kHostLane;
    return rec_->resourceLane("host:" + tenantNames_[t]);
}

void
CommandQueue::recordInterval(const Command &cmd, Event id, int where,
                             double t0, double t1, bool fault,
                             uint64_t cycles)
{
    const bool idle =
        cmd.type == Command::Type::HostCompute && cmd.hostUntil >= 0.0;
    // Sampler and trace times are epoch-absolute, so both stay
    // monotonic across resetTimeline.
    t0 += traceEpoch_;
    t1 += traceEpoch_;
    if (rec_ != nullptr) {
        trace::Span s;
        s.lane = where == kOnHost ? hostLane(cmd.tenant)
            : where == kOnBus     ? trace::kBusLane
                                  : trace::rankLane(where);
        if (!cmd.label.empty()) {
            s.name = cmd.label;
        } else {
            switch (cmd.type) {
              case Command::Type::Launch:
                s.name = "launch";
                break;
              case Command::Type::Copy:
                s.name = cmd.dir == CopyDirection::HostToPim
                    ? "memcpy:h2p" : "memcpy:p2h";
                break;
              case Command::Type::HostCompute:
                s.name = idle ? "idle-until" : "host";
                break;
            }
        }
        if (cmd.type == Command::Type::Launch && where == kOnHost)
            s.name += " (issue)";
        if (fault)
            s.name += " !fault";
        s.tenant = tenantTag(cmd.tenant);
        s.t0 = t0;
        s.t1 = t1;
        s.bytes = cmd.type == Command::Type::Copy && where == kOnBus
            ? cmd.totalBytes : 0;
        s.cycles = cycles;
        s.event = id;
        s.after = cmd.after;
        s.idle = idle;
        rec_->record(std::move(s));
    }
    if (met_ == nullptr || idle)
        return;
    telemetry::TimelineSampler &smp = met_->sampler();
    if (where == kOnHost) {
        smp.accumulate(tenantMet_[cmd.tenant].hostSid, t0, t1);
    } else if (where == kOnBus) {
        smp.accumulate(busSid_, t0, t1);
    } else {
        smp.accumulate(rankSid_[where], t0, t1);
        smp.accumulate(ranksBusySid_, t0, t1);
        smp.accumulate(tenantMet_[cmd.tenant].ranksBusySid, t0, t1);
    }
}

void
CommandQueue::observeResolved(const Command &cmd, double start,
                              bool failed, bool poisoned,
                              unsigned retries)
{
    if (met_ == nullptr)
        return;
    const TenantMetrics &tm = tenantMet_[cmd.tenant];
    countBoth(qm_.resolved, tm.resolved, 1);
    if (failed)
        countBoth(qm_.failed, tm.failed, 1);
    if (poisoned) {
        // Charged nothing: no sim events, no in-flight window.
        countBoth(qm_.poisoned, tm.poisoned, 1);
        return;
    }
    if (retries > 0)
        countBoth(qm_.retries, tm.retries, retries);
    switch (cmd.type) {
      case Command::Type::Launch: {
        uint64_t ev = 0;
        if (cmd.eventsOff != kNoArena) {
            for (size_t j = 0; j < cmd.part->slots.size(); ++j)
                ev += slotEventsArena_[cmd.eventsOff + j];
        }
        qm_.simEvents->add(ev);
        break;
      }
      case Command::Type::Copy:
        if (!failed)
            countBoth(qm_.busBytes, tm.busBytes, cmd.totalBytes);
        break;
      case Command::Type::HostCompute:
        if (cmd.hostUntil >= 0.0)
            return; // an idle wait is not in flight
        break;
    }
    telemetry::TimelineSampler &smp = met_->sampler();
    smp.eventDelta(depthSid_, traceEpoch_ + start, +1);
    smp.eventDelta(depthSid_, traceEpoch_ + cmd.end, -1);
}

double
CommandQueue::hostSeconds(TenantId t) const
{
    PIM_ASSERT(t < hostT_.size(), "unknown tenant ", t);
    return hostT_[t];
}

double
CommandQueue::rankReadySeconds(unsigned r) const
{
    PIM_ASSERT(r < rankT_.size(), "rank out of range");
    return rankT_[r];
}

Event
CommandQueue::enqueue(Command cmd, const CommandOptions &opts)
{
    cmd.after = opts.after;
    cmd.tenant = opts.tenant;
    if (rec_ != nullptr)
        cmd.label = opts.label;
    const Event id = static_cast<Event>(
        resolvedBase_ + resolved_.size() + pending_.size());
    if (cmd.after != kNoEvent) {
        // Fail fast on dependencies that could never name an earlier
        // command — resolving them against garbage timelines (negative
        // handles silently read as compacted history = 0.0) hides real
        // ordering bugs.
        PIM_ASSERT(cmd.after >= 0,
                   "CommandOptions::after = ", cmd.after,
                   " is not an Event handle (uninitialized or garbage "
                   "dependency; use kNoEvent for \"no dependency\")");
        PIM_ASSERT(cmd.after != id,
                   "command ", id, " depends on itself: "
                   "CommandOptions::after must name an earlier command");
        PIM_ASSERT(cmd.after < id,
                   "command ", id, " names the future event ", cmd.after,
                   " as its dependency: forward references cannot be "
                   "ordered (events are issued in enqueue order)");
    }
    PIM_ASSERT(cmd.tenant < hostT_.size(),
               "unknown tenant ", cmd.tenant,
               " (register it with addTenant first)");
    if (met_ != nullptr) {
        ensureTenantMetrics();
        qm_.issued->add();
        if (cmd.tenant != kDefaultTenant)
            tenantMet_[cmd.tenant].issued->add();
    }
    pending_.push_back(std::move(cmd));
    return id;
}

double
CommandQueue::eventTime(Event e) const
{
    // Events older than the last compaction point are dominated by the
    // joined host time, so 0.0 is an exact stand-in inside the max().
    return e < static_cast<Event>(resolvedBase_)
        ? 0.0 : resolved_[static_cast<size_t>(e) - resolvedBase_];
}

bool
CommandQueue::eventFailedInternal(Event e) const
{
    // Compacted history reads as succeeded: sync() is a barrier that
    // recovery (re-enqueue with fresh dependencies) happens behind.
    return e >= static_cast<Event>(resolvedBase_)
        && resolvedFailed_[static_cast<size_t>(e) - resolvedBase_] != 0;
}

double
CommandQueue::copyDuration(const DpuSet &set, uint64_t total_bytes) const
{
    return sys_.transferModel().secondsTotal(total_bytes, set.size());
}

CommandQueue::Command
CommandQueue::makeCopy(const DpuSet &set, uint64_t total_bytes,
                       CopyDirection dir) const
{
    Command cmd;
    cmd.type = Command::Type::Copy;
    cmd.dir = dir;
    cmd.totalBytes = total_bytes;
    cmd.copySeconds = copyDuration(set, total_bytes);
    cmd.part = set.partition();
    return cmd;
}

Event
CommandQueue::memcpyAsync(const DpuSet &set, uint64_t bytes_per_dpu,
                          CopyDirection dir, const CommandOptions &opts)
{
    return enqueue(makeCopy(set, bytes_per_dpu * set.size(), dir), opts);
}

Event
CommandQueue::enqueueScatter(const DpuSet &set,
                             const std::vector<uint64_t> &bytes_per_dpu,
                             CopyDirection dir,
                             const CommandOptions &opts,
                             bool occupy_ranks)
{
    PIM_ASSERT(bytes_per_dpu.size() == set.size(),
               "scatter byte counts must match the set size");
    uint64_t total = 0;
    for (const uint64_t b : bytes_per_dpu)
        total += b;
    Command cmd = makeCopy(set, total, dir);
    cmd.occupyRanks = occupy_ranks;
    return enqueue(std::move(cmd), opts);
}

Event
CommandQueue::memcpyScatterAsync(const DpuSet &set,
                                 std::vector<uint64_t> bytes_per_dpu,
                                 CopyDirection dir,
                                 const CommandOptions &opts)
{
    return enqueueScatter(set, bytes_per_dpu, dir, opts,
                          /*occupy_ranks=*/true);
}

Event
CommandQueue::memcpyBufferedAsync(const DpuSet &set,
                                  uint64_t bytes_per_dpu,
                                  CopyDirection dir,
                                  const CommandOptions &opts)
{
    Command cmd = makeCopy(set, bytes_per_dpu * set.size(), dir);
    cmd.occupyRanks = false;
    return enqueue(std::move(cmd), opts);
}

Event
CommandQueue::memcpyScatterBufferedAsync(
    const DpuSet &set, std::vector<uint64_t> bytes_per_dpu,
    CopyDirection dir, const CommandOptions &opts)
{
    return enqueueScatter(set, bytes_per_dpu, dir, opts,
                          /*occupy_ranks=*/false);
}

Event
CommandQueue::launch(const DpuSet &set, unsigned tasklets,
                     std::function<void(sim::Tasklet &, unsigned)> body,
                     const CommandOptions &opts)
{
    return launchProgram(
        set,
        [tasklets, body = std::move(body)](sim::Dpu &dpu,
                                           unsigned global) {
            dpu.run(tasklets,
                    [&](sim::Tasklet &t) { body(t, global); });
        },
        opts);
}

Event
CommandQueue::launchProgram(const DpuSet &set, LaunchFn program,
                            const CommandOptions &opts)
{
    // A launch with no materialized member would silently run nothing
    // and cost nothing — an experiment bug, not a zero-work launch
    // (cf. PimSystemConfig::samplePerRank for rank-granular targets).
    PIM_ASSERT(!set.slots().empty(),
               "launch target contains no materialized DPU");
    Command cmd;
    cmd.type = Command::Type::Launch;
    cmd.program = std::move(program);
    cmd.part = set.partition();
    const size_t nslots = cmd.part->slots.size();
    cmd.cyclesOff = slotCyclesArena_.size();
    slotCyclesArena_.resize(cmd.cyclesOff + nslots, 0);
    if (met_ != nullptr) {
        cmd.eventsOff = slotEventsArena_.size();
        slotEventsArena_.resize(cmd.eventsOff + nslots, 0);
    }
    return enqueue(std::move(cmd), opts);
}

Event
CommandQueue::launchTimed(const DpuSet &set, double seconds,
                          const CommandOptions &opts)
{
    PIM_ASSERT(seconds >= 0.0, "negative launch duration");
    Command cmd;
    cmd.type = Command::Type::Launch;
    cmd.launchSeconds = seconds;
    cmd.part = set.partition();
    return enqueue(std::move(cmd), opts);
}

double
CommandQueue::hostCompute(uint64_t tasks, uint64_t instrs_per_task,
                          const CommandOptions &opts)
{
    return hostBusy(sys_.hostModel().seconds(tasks, instrs_per_task),
                    opts);
}

double
CommandQueue::hostBusy(double seconds, const CommandOptions &opts)
{
    Command cmd;
    cmd.type = Command::Type::HostCompute;
    cmd.hostSeconds = seconds;
    enqueue(std::move(cmd), opts);
    return seconds;
}

void
CommandQueue::hostIdleUntil(double seconds, const CommandOptions &opts)
{
    Command cmd;
    cmd.type = Command::Type::HostCompute;
    cmd.hostUntil = seconds;
    enqueue(std::move(cmd), opts);
}

void
CommandQueue::drain()
{
    if (pending_.empty())
        return;

    const Clock::time_point t_start = Clock::now();
    const size_t folded = pending_.size();

    // Phase 1: execute launch bodies. Each materialized slot runs its
    // launches in enqueue order (one ordered chain per slot), and the
    // chains shard across the host pool — a slot's state is only ever
    // touched by one worker, so per-DPU closures need no locking.
    // chains_/activeSlots_ are scratch reused across drains: only the
    // slots the *previous* drain touched are cleared, so the build is
    // O(commands' slots), not O(sampleCount).
    if (chains_.size() < sys_.sampleCount())
        chains_.resize(sys_.sampleCount());
    for (const unsigned slot : activeSlots_)
        chains_[slot].clear();
    activeSlots_.clear();
    for (Command &cmd : pending_) {
        // Timed launches carry no program: nothing to execute here.
        if (cmd.type != Command::Type::Launch || !cmd.program)
            continue;
        const std::vector<unsigned> &slots = cmd.part->slots;
        for (unsigned pos = 0;
             pos < static_cast<unsigned>(slots.size()); ++pos) {
            const unsigned slot = slots[pos];
            if (chains_[slot].empty())
                activeSlots_.push_back(slot);
            chains_[slot].push_back(ChainEntry{&cmd, pos});
        }
    }
    std::sort(activeSlots_.begin(), activeSlots_.end());
    sys_.engine().forEach(activeSlots_.size(), [&](size_t i) {
        const unsigned slot = activeSlots_[i];
        const unsigned global = sys_.globalIndex(slot);
        sim::Dpu &dpu = sys_.dpu(slot);
        for (const ChainEntry &e : chains_[slot]) {
            e.cmd->program(dpu, global);
            slotCyclesArena_[e.cmd->cyclesOff + e.pos] =
                dpu.lastElapsedCycles();
            // Only sized while metrics are attached; each (cmd, pos)
            // is written by exactly one worker, so no synchronization.
            if (e.cmd->eventsOff != kNoArena)
                slotEventsArena_[e.cmd->eventsOff + e.pos] =
                    dpu.lastSimEvents();
        }
    });
    const Clock::time_point t_fold_start = Clock::now();

    // Phase 2: fold the commands into the timelines, sequentially and
    // in enqueue order — bit-identical for any worker-thread count.
    // Host-side charges land on the issuing tenant's host lane; the bus
    // and the ranks are shared across tenants. Each charged interval
    // and each resolved command goes to the observers through one call
    // (observeInterval / observeResolved).
    const double launch_overhead =
        sys_.config().xferCfg.launchLatencySec;
    if (met_ != nullptr)
        ensureTenantMetrics();
    for (Command &cmd : pending_) {
        const Event id = static_cast<Event>(
            resolvedBase_ + resolved_.size());
        const double dep =
            cmd.after == kNoEvent ? 0.0 : eventTime(cmd.after);
        double &host_t = hostT_[cmd.tenant];
        // Set by the fault paths below; recorded alongside cmd.end.
        bool failed = false;
        if (inj_ != nullptr && cmd.after != kNoEvent
            && eventFailedInternal(cmd.after)) {
            // Poisoned: the dependency failed, so this command errors
            // out the moment the failure is known, charging nothing to
            // any timeline — the failure propagates down the dependent
            // chain and nowhere else.
            cmd.end = std::max(host_t, dep);
            inj_->notePoisoned();
            observeResolved(cmd, cmd.end, /*failed=*/true,
                            /*poisoned=*/true, 0);
            resolved_.push_back(cmd.end);
            resolvedFailed_.push_back(1);
            continue;
        }
        // Opening of the command's in-flight window (a launch's issue).
        double window_t0 = host_t;
        // Transfer attempts beyond the first.
        unsigned retries = 0;
        switch (cmd.type) {
          case Command::Type::Launch: {
            // The host pays the driver-issue overhead, then moves on.
            const double issue_t0 = host_t;
            host_t += launch_overhead;
            observeInterval(cmd, id, kOnHost, issue_t0, host_t);
            // A rank with sampled members is busy for its slowest one;
            // an unsampled rank is charged the slowest sampled member
            // of the whole launch (representative-sample assumption).
            // Timed launches (launchSeconds >= 0) ran no program: every
            // rank is charged the analytic duration instead.
            const bool timed = cmd.launchSeconds >= 0.0;
            const SlotPartition &part = *cmd.part;
            uint64_t all_max = 0;
            if (!timed) {
                for (size_t j = 0; j < part.slots.size(); ++j)
                    all_max = std::max(
                        all_max, slotCyclesArena_[cmd.cyclesOff + j]);
            }
            double launch_end = host_t;
            double launch_work = 0.0;
            // Fault decisions for this launch, made here in the
            // sequential fold so they are thread-count independent.
            const double timeout =
                inj_ != nullptr ? inj_->launchTimeoutSec() : 0.0;
            const int hang_rank = inj_ != nullptr
                ? inj_->consumeHang(part.ranks, host_t) : -1;
            if (hang_rank >= 0 && timeout <= 0.0)
                PIM_FATAL("launch hang injected on rank ", hang_rank,
                          " but no launch timeout is configured: a hung "
                          "launch would stall the simulated timeline "
                          "forever (set FaultSpec::launchTimeoutSec)");
            for (size_t ri = 0; ri < part.ranks.size(); ++ri) {
                const unsigned r = part.ranks[ri];
                // The partition's slots are grouped by rank, so this
                // rank's sampled members are one contiguous run — the
                // scan is O(slots of the launch) overall, not
                // O(ranks x slots).
                uint64_t cycles = 0;
                if (!timed) {
                    const size_t jb = part.rankSlotBegin[ri];
                    const size_t je = part.rankSlotBegin[ri + 1];
                    if (je > jb) {
                        for (size_t j = jb; j < je; ++j)
                            cycles = std::max(
                                cycles,
                                slotCyclesArena_[cmd.cyclesOff + j]);
                    } else {
                        cycles = all_max;
                    }
                }
                double dur = timed
                    ? cmd.launchSeconds
                    : sys_.config().dpuCfg.cyclesToSeconds(cycles);
                const double start =
                    std::max({host_t, rankT_[r], dep});
                bool rank_fault = false; // this rank's slice was cut
                bool charge = true;      // false: dead rank, frozen
                if (inj_ != nullptr) {
                    const double fail_at = inj_->rankFailSeconds(r);
                    if (fail_at <= start) {
                        // Already dead: nothing runs, nothing is
                        // charged; the command errors back at the time
                        // it would have started.
                        failed = rank_fault = true;
                        charge = false;
                        dur = 0.0;
                        traceRankDeath(r, fail_at);
                    } else {
                        const double mult =
                            inj_->launchMultiplier(r, start);
                        if (mult > 1.0) {
                            dur *= mult;
                            inj_->noteDegraded();
                        }
                        if (static_cast<int>(r) == hang_rank) {
                            // Hung kernel: the timeout reaps it.
                            dur = timeout;
                            failed = rank_fault = true;
                        } else if (timeout > 0.0 && dur > timeout) {
                            dur = timeout;
                            failed = rank_fault = true;
                            inj_->noteTimeout();
                        }
                        if (fail_at < start + dur) {
                            // Dies mid-launch: busy until the death,
                            // then the rank's timeline freezes.
                            dur = fail_at - start;
                            failed = rank_fault = true;
                            traceRankDeath(r, fail_at);
                        }
                    }
                }
                if (charge) {
                    rankT_[r] = start + dur;
                    launch_end = std::max(launch_end, rankT_[r]);
                    launch_work = std::max(launch_work, dur);
                    observeInterval(cmd, id, static_cast<int>(r), start,
                                    rankT_[r], rank_fault, cycles);
                } else {
                    launch_end = std::max(launch_end, start);
                }
            }
            // Ranks run concurrently, so one launch contributes its
            // slowest rank once to the serial-composition work sum.
            launchWork_ += launch_work;
            cmd.end = launch_end;
            break;
          }
          case Command::Type::Copy: {
            // A double-buffered copy (occupyRanks false) lands in the
            // inactive buffer: it still serializes on the bus and
            // cannot start before the host issued it, but the target
            // ranks neither delay it nor stall on it.
            double start = std::max({host_t, busT_, dep});
            if (cmd.occupyRanks) {
                for (const unsigned r : cmd.part->ranks)
                    start = std::max(start, rankT_[r]);
            }
            double copy_sec = cmd.copySeconds;
            if (inj_ != nullptr) {
                bool dead_target = false;
                for (const unsigned r : cmd.part->ranks) {
                    if (inj_->rankFailedBy(r, start)) {
                        dead_target = true;
                        traceRankDeath(r, inj_->rankFailSeconds(r));
                    }
                }
                if (dead_target) {
                    // The DMA errors back: the bus is held for the one
                    // attempt, the data never lands on any rank.
                    failed = true;
                } else {
                    const fault::TransferOutcome out =
                        inj_->transfer(start, cmd.copySeconds);
                    copy_sec = out.busSeconds;
                    failed = out.failed;
                    retries = out.attempts - 1;
                }
            }
            const double end = start + copy_sec;
            busT_ = end;
            window_t0 = start;
            observeInterval(cmd, id, kOnBus, start, end, failed);
            if (cmd.occupyRanks && !failed) {
                for (const unsigned r : cmd.part->ranks) {
                    rankT_[r] = end;
                    observeInterval(cmd, id, static_cast<int>(r), start,
                                    end);
                }
            }
            // A failed transfer moved wire traffic but delivered no
            // payload; retries of a succeeding one deliver it once.
            if (!failed)
                transferredBytes_ += cmd.totalBytes;
            copyWork_ += copy_sec;
            cmd.end = end;
            break;
          }
          case Command::Type::HostCompute: {
            const double host_t0 = host_t;
            if (cmd.hostUntil >= 0.0) {
                host_t = std::max({host_t, cmd.hostUntil, dep});
                if (host_t > host_t0)
                    observeInterval(cmd, id, kOnHost, host_t0, host_t);
            } else {
                const double start = std::max(host_t0, dep);
                host_t = start + cmd.hostSeconds;
                hostWork_ += cmd.hostSeconds;
                window_t0 = start;
                observeInterval(cmd, id, kOnHost, start, host_t);
            }
            cmd.end = host_t;
            break;
          }
        }
        observeResolved(cmd, window_t0, failed, /*poisoned=*/false,
                        retries);
        resolved_.push_back(cmd.end);
        resolvedFailed_.push_back(failed ? 1 : 0);
    }
    const Clock::time_point t_fold_end = Clock::now();
    stats_.drains += 1;
    stats_.commands += folded;
    stats_.phase1Sec +=
        std::chrono::duration<double>(t_fold_start - t_start).count();
    stats_.phase2Sec +=
        std::chrono::duration<double>(t_fold_end - t_fold_start)
            .count();
    stats_.wallSec += secondsSince(t_start);
    if (met_ != nullptr) {
        qm_.drainPhase1->set(stats_.phase1Sec);
        qm_.drainPhase2->set(stats_.phase2Sec);
        if (stats_.wallSec > 0.0)
            qm_.drainCps->set(static_cast<double>(stats_.commands)
                              / stats_.wallSec);
    }
    pending_.clear();
    slotCyclesArena_.clear();
    slotEventsArena_.clear();
}

double
CommandQueue::eventSeconds(Event e)
{
    // Fail fast on handles that never named a command: kNoEvent (a
    // default-initialized Event) and ids beyond everything enqueued.
    PIM_ASSERT(e != kNoEvent,
               "eventSeconds(kNoEvent): the event was never enqueued "
               "(default Event handle)");
    PIM_ASSERT(e >= 0
                   && e < static_cast<Event>(resolvedBase_
                                             + resolved_.size()
                                             + pending_.size()),
               "eventSeconds(", e, "): the event was never enqueued");
    drain();
    PIM_ASSERT(e >= static_cast<Event>(resolvedBase_),
               "event ", e, " was compacted by sync()/resetTimeline");
    return resolved_[static_cast<size_t>(e) - resolvedBase_];
}

bool
CommandQueue::eventFailed(Event e)
{
    PIM_ASSERT(e != kNoEvent,
               "eventFailed(kNoEvent): the event was never enqueued "
               "(default Event handle)");
    PIM_ASSERT(e >= 0
                   && e < static_cast<Event>(resolvedBase_
                                             + resolved_.size()
                                             + pending_.size()),
               "eventFailed(", e, "): the event was never enqueued");
    drain();
    PIM_ASSERT(e >= static_cast<Event>(resolvedBase_),
               "event ", e, " was compacted by sync()/resetTimeline");
    return resolvedFailed_[static_cast<size_t>(e) - resolvedBase_] != 0;
}

double
CommandQueue::joinedTime() const
{
    double t = busT_;
    for (const double h : hostT_)
        t = std::max(t, h);
    for (const double r : rankT_)
        t = std::max(t, r);
    return t;
}

double
CommandQueue::sync()
{
    drain();
    const double t = joinedTime();
    std::fill(hostT_.begin(), hostT_.end(), t);
    // Every resolved completion is now <= the joined host time, so the
    // event history can be compacted (eventTime answers 0.0, which is
    // exact inside the start-time max()). Keeps memory bounded for
    // sync-per-step drivers like the serving simulator.
    resolvedBase_ += resolved_.size();
    resolved_.clear();
    resolvedFailed_.clear();
    return t;
}

void
CommandQueue::resetTimeline()
{
    drain();
    // Compacting rebases pre-reset Events to the new epoch: they
    // resolve to 0.0 and cannot leak stale absolute time in.
    resolvedBase_ += resolved_.size();
    resolved_.clear();
    resolvedFailed_.clear();
    // Keep the trace and sampler timelines monotonic across the reset:
    // spans and bins of the new epoch start where the old epoch's
    // timelines ended.
    if (rec_ != nullptr || met_ != nullptr)
        traceEpoch_ += joinedTime();
    std::fill(hostT_.begin(), hostT_.end(), 0.0);
    busT_ = 0.0;
    std::fill(rankT_.begin(), rankT_.end(), 0.0);
    transferredBytes_ = 0;
    launchWork_ = 0.0;
    copyWork_ = 0.0;
    hostWork_ = 0.0;
    stats_ = DrainStats{};
}

} // namespace pim::core

/**
 * @file
 * Tests for deterministic fault injection and fault-tolerant execution:
 * FaultSpec parsing (and its fail-fast fatals), FaultPlan determinism
 * and named-stream isolation, util::Rng named sub-streams, the
 * CommandQueue's fault-aware fold (dead ranks, poisoned dependents,
 * transfer retries, timeouts, hangs, degraded ranks), dependency-handle
 * validation, RankScheduler quarantine / revocation / waiting-queue /
 * teardown, and end-to-end workload recovery (serving
 * and graph-update) including thread-count invariance under injected
 * faults and per-tenant occupancy accounting of KV re-ship traffic.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "core/rank_scheduler.hh"
#include "core/session.hh"
#include "fault/fault_plan.hh"
#include "fault/injector.hh"
#include "telemetry/registry.hh"
#include "trace/occupancy.hh"
#include "trace/trace.hh"
#include "util/rng.hh"
#include "workloads/graph/update_driver.hh"
#include "workloads/llm/serving_engine.hh"

using namespace pim;
using namespace pim::core;

namespace {

/** Small-MRAM DPU so tests don't pay 64 MB of backing store per DPU. */
sim::DpuConfig
smallDpuCfg()
{
    sim::DpuConfig cfg;
    cfg.mramBytes = 1u << 20;
    return cfg;
}

PimSystemConfig
smallSystem(unsigned dpus, unsigned per_rank, unsigned sample = 0)
{
    PimSystemConfig cfg;
    cfg.numDpus = dpus;
    cfg.dpusPerRank = per_rank;
    cfg.sampleDpus = sample;
    cfg.dpuCfg = smallDpuCfg();
    return cfg;
}

fault::FaultEvent
rankFail(double at, unsigned rank)
{
    fault::FaultEvent e;
    e.kind = fault::FaultKind::RankFail;
    e.atSec = at;
    e.rank = rank;
    return e;
}

/** Injector over an explicit event list (spec defaults otherwise). */
std::unique_ptr<fault::FaultInjector>
injectorOf(std::vector<fault::FaultEvent> events, unsigned num_ranks,
           fault::FaultSpec spec = {})
{
    return std::make_unique<fault::FaultInjector>(
        fault::FaultPlan(spec, std::move(events), num_ranks));
}

} // namespace

// ---------------------------------------------------------------------
// FaultSpec parsing
// ---------------------------------------------------------------------

TEST(FaultSpec, ParsesEveryKey)
{
    const fault::FaultSpec s = fault::FaultSpec::parse(
        "mtbf=5,xfer-mtbf=0.5,degrade-mtbf=10,degrade-mult=3,"
        "degrade-dur=0.25,hang-mtbf=9,timeout=0.2,horizon=60,"
        "backoff=1e-4,backoff-cap=2e-3,max-attempts=4");
    EXPECT_EQ(s.rankMtbfSec, 5.0);
    EXPECT_EQ(s.transferMtbfSec, 0.5);
    EXPECT_EQ(s.degradeMtbfSec, 10.0);
    EXPECT_EQ(s.degradeMultiplier, 3.0);
    EXPECT_EQ(s.degradeDurationSec, 0.25);
    EXPECT_EQ(s.hangMtbfSec, 9.0);
    EXPECT_EQ(s.launchTimeoutSec, 0.2);
    EXPECT_EQ(s.horizonSec, 60.0);
    EXPECT_EQ(s.retryBackoffSec, 1e-4);
    EXPECT_EQ(s.retryBackoffCapSec, 2e-3);
    EXPECT_EQ(s.maxTransferAttempts, 4u);
    EXPECT_TRUE(s.enabled());
}

TEST(FaultSpec, EmptySpecDisablesEverything)
{
    EXPECT_FALSE(fault::FaultSpec::parse("").enabled());
    EXPECT_FALSE(fault::FaultSpec::fromKnobs("", 0.0).enabled());
}

TEST(FaultSpec, MtbfKnobOverridesSpec)
{
    const fault::FaultSpec s =
        fault::FaultSpec::fromKnobs("mtbf=3,xfer-mtbf=1", 5.0);
    EXPECT_EQ(s.rankMtbfSec, 5.0);
    EXPECT_EQ(s.transferMtbfSec, 1.0);
    // Zero override keeps the spec's own rate.
    EXPECT_EQ(fault::FaultSpec::fromKnobs("mtbf=3", 0.0).rankMtbfSec,
              3.0);
}

TEST(FaultSpecDeathTest, InvalidSpecsAreFatal)
{
    EXPECT_DEATH(fault::FaultSpec::parse("mtbff=3"), "unknown key");
    EXPECT_DEATH(fault::FaultSpec::parse("mtbf=abc"), "is not a number");
    EXPECT_DEATH(fault::FaultSpec::parse("mtbf=-1"), "must be >= 0");
    EXPECT_DEATH(fault::FaultSpec::parse("mtbf"), "expected key=value");
    EXPECT_DEATH(fault::FaultSpec::parse("degrade-mult=0.5"),
                 "degrade-mult must be >= 1");
    EXPECT_DEATH(fault::FaultSpec::parse("horizon=0"),
                 "horizon must be > 0");
    EXPECT_DEATH(fault::FaultSpec::parse("max-attempts=2.5"),
                 "max-attempts must be a positive");
    // A hang with no timeout would stall the timeline forever.
    EXPECT_DEATH(fault::FaultSpec::parse("hang-mtbf=5"),
                 "hang-mtbf requires a launch timeout");
}

TEST(FaultSpecDeathTest, NonFiniteValuesAreFatal)
{
    // NaN passes every range check and infinity every >= 0 check, so
    // the parser rejects both before any key-specific test.
    EXPECT_DEATH(fault::FaultSpec::parse("xfer-mtbf=nan"),
                 "--fault-spec: value for 'xfer-mtbf' must be finite");
    EXPECT_DEATH(fault::FaultSpec::parse("hang-mtbf=inf,timeout=0.2"),
                 "--fault-spec: value for 'hang-mtbf' must be finite");
    EXPECT_DEATH(fault::FaultSpec::parse("degrade-mtbf=1,degrade-mult=nan"),
                 "--fault-spec: value for 'degrade-mult' must be finite");
}

// ---------------------------------------------------------------------
// FaultPlan generation
// ---------------------------------------------------------------------

TEST(FaultPlan, DeterministicInSeedAndSorted)
{
    fault::FaultSpec spec;
    spec.rankMtbfSec = 2.0;
    spec.transferMtbfSec = 1.0;
    spec.degradeMtbfSec = 5.0;
    const fault::FaultPlan a(spec, 23, 8);
    const fault::FaultPlan b(spec, 23, 8);
    ASSERT_FALSE(a.events().empty());
    ASSERT_EQ(a.events().size(), b.events().size());
    for (size_t i = 0; i < a.events().size(); ++i) {
        EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
        EXPECT_EQ(a.events()[i].atSec, b.events()[i].atSec);
        EXPECT_EQ(a.events()[i].rank, b.events()[i].rank);
    }
    for (size_t i = 1; i < a.events().size(); ++i)
        EXPECT_LE(a.events()[i - 1].atSec, a.events()[i].atSec);

    const fault::FaultPlan c(spec, 24, 8);
    ASSERT_FALSE(c.events().empty());
    EXPECT_NE(a.events().front().atSec, c.events().front().atSec);
}

TEST(FaultPlan, ClassStreamsDoNotInterfere)
{
    // Adding a second fault class must not shift the rank-failure
    // schedule: each class draws from its own named sub-stream.
    fault::FaultSpec only_ranks;
    only_ranks.rankMtbfSec = 2.0;
    fault::FaultSpec both = only_ranks;
    both.transferMtbfSec = 0.5;

    const auto a = fault::FaultPlan(only_ranks, 23, 8)
                       .eventsOfKind(fault::FaultKind::RankFail);
    const auto b = fault::FaultPlan(both, 23, 8)
                       .eventsOfKind(fault::FaultKind::RankFail);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_FALSE(a.empty());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].atSec, b[i].atSec);
        EXPECT_EQ(a[i].rank, b[i].rank);
    }
}

TEST(FaultPlan, EventTimesScaleWithMtbf)
{
    // Inverse-transform exponentials: for a fixed seed the first event
    // time is linear in the MTBF (same uniform draw), so tests can dial
    // a death onto any target instant.
    fault::FaultSpec one;
    one.rankMtbfSec = 1.0;
    fault::FaultSpec two;
    two.rankMtbfSec = 2.0;
    const auto a = fault::FaultPlan(one, 23, 8)
                       .eventsOfKind(fault::FaultKind::RankFail);
    const auto b = fault::FaultPlan(two, 23, 8)
                       .eventsOfKind(fault::FaultKind::RankFail);
    ASSERT_FALSE(a.empty());
    ASSERT_FALSE(b.empty());
    EXPECT_DOUBLE_EQ(b.front().atSec, 2.0 * a.front().atSec);
    EXPECT_EQ(a.front().rank, b.front().rank);
}

TEST(FaultPlan, ProgrammaticPlanSortsEvents)
{
    const fault::FaultPlan plan(
        {}, {rankFail(3.0, 1), rankFail(1.0, 0), rankFail(2.0, 2)}, 4);
    ASSERT_EQ(plan.events().size(), 3u);
    EXPECT_EQ(plan.events()[0].atSec, 1.0);
    EXPECT_EQ(plan.events()[1].atSec, 2.0);
    EXPECT_EQ(plan.events()[2].atSec, 3.0);
}

TEST(FaultPlanDeathTest, ProgrammaticPlanRejectsOutOfRangeRank)
{
    EXPECT_DEATH(fault::FaultPlan({}, {rankFail(1.0, 7)}, 4),
                 "outside the");
}

// ---------------------------------------------------------------------
// util::Rng named sub-streams
// ---------------------------------------------------------------------

TEST(RngStream, SameNameYieldsSameStream)
{
    const util::Rng root(42);
    util::Rng a = root.stream("fault/rank3");
    util::Rng b = root.stream("fault/rank3");
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngStream, DifferentNamesAreIndependent)
{
    const util::Rng root(42);
    util::Rng a = root.stream("fault/rank3");
    util::Rng b = root.stream("fault/rank4");
    // Identical 16-draw prefixes would mean the name is ignored.
    bool any_diff = false;
    for (int i = 0; i < 16; ++i)
        any_diff |= a.next() != b.next();
    EXPECT_TRUE(any_diff);
}

TEST(RngStream, DoesNotAdvanceParent)
{
    util::Rng derived(42);
    util::Rng plain(42);
    (void)derived.stream("a");
    (void)derived.stream("b");
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(derived.next(), plain.next());
}

TEST(RngStream, StableRegardlessOfOtherStreamUsage)
{
    // Drawing from one stream (or deriving extra streams) never shifts
    // the values another stream produces — the property a shared
    // generator drawn in a knob-dependent order cannot give.
    const util::Rng r1(7);
    const util::Rng r2(7);
    util::Rng noisy = r1.stream("noise");
    for (int i = 0; i < 100; ++i)
        (void)noisy.next();
    (void)r1.stream("other");
    util::Rng a = r1.stream("target");
    util::Rng b = r2.stream("target");
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.next(), b.next());
}

// ---------------------------------------------------------------------
// FaultInjector data plane
// ---------------------------------------------------------------------

TEST(FaultInjector, RankFailQueries)
{
    const auto inj = injectorOf({rankFail(2.5, 1)}, 2);
    EXPECT_EQ(inj->rankFailSeconds(1), 2.5);
    EXPECT_TRUE(std::isinf(inj->rankFailSeconds(0)));
    EXPECT_FALSE(inj->rankFailedBy(1, 2.4));
    EXPECT_TRUE(inj->rankFailedBy(1, 2.5));
    EXPECT_FALSE(inj->rankFailedBy(0, 1e9));
}

TEST(FaultInjector, DrainReportsFirstFailurePerRankInOrder)
{
    // Rank 1 dies twice: only the first death is reported. Draining in
    // two steps honors the now cursor.
    const auto inj = injectorOf(
        {rankFail(1.0, 1), rankFail(2.0, 0), rankFail(3.0, 1)}, 2);
    auto due = inj->drainFailedRanks(0.5);
    EXPECT_TRUE(due.empty());
    due = inj->drainFailedRanks(1.5);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].rank, 1u);
    due = inj->drainFailedRanks(10.0);
    ASSERT_EQ(due.size(), 1u);
    EXPECT_EQ(due[0].rank, 0u);
    EXPECT_TRUE(inj->drainFailedRanks(1e9).empty());
}

// ---------------------------------------------------------------------
// CommandQueue fault semantics
// ---------------------------------------------------------------------

TEST(QueueFaults, RankDeathTruncatesAndThenFailsImmediately)
{
    // Clean dry run to learn the exact completion times of the first
    // two launches, so the death can be dialed mid-second-launch.
    double end1_clean = 0.0, end2_clean = 0.0;
    {
        PimSystem sys(smallSystem(128, 64));
        CommandQueue q(sys);
        const Event e1 = q.launchTimed(sys.rank(0), 2e-3);
        const Event e2 = q.launchTimed(sys.rank(0), 10e-3);
        end1_clean = q.eventSeconds(e1);
        end2_clean = q.eventSeconds(e2);
    }
    const double fail_at = end1_clean + 5e-3;
    ASSERT_LT(fail_at, end2_clean);

    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({rankFail(fail_at, 0)}, sys.numRanks());
    q.attachFaultInjector(inj.get());

    const Event e1 = q.launchTimed(sys.rank(0), 2e-3);
    const Event e2 = q.launchTimed(sys.rank(0), 10e-3);
    const Event e3 = q.launchTimed(sys.rank(0), 1e-3);
    const Event ok = q.launchTimed(sys.rank(1), 1e-3);

    // Before the death the rank runs normally.
    EXPECT_FALSE(q.eventFailed(e1));
    EXPECT_EQ(q.eventSeconds(e1), end1_clean);
    // Mid-launch death: busy until the death, then the command fails.
    EXPECT_TRUE(q.eventFailed(e2));
    EXPECT_DOUBLE_EQ(q.eventSeconds(e2), fail_at);
    // Launches touching a dead rank fail immediately, and the rank's
    // timeline stays frozen at the death.
    EXPECT_TRUE(q.eventFailed(e3));
    EXPECT_EQ(q.rankReadySeconds(0), fail_at);
    // The other rank is untouched.
    EXPECT_FALSE(q.eventFailed(ok));
    EXPECT_EQ(inj->stats().rankFailures, 0u); // data plane only
}

TEST(QueueFaults, FailedDependencyPoisonsOnlyDependents)
{
    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({rankFail(0.0, 0)}, sys.numRanks());
    q.attachFaultInjector(inj.get());

    const Event doomed = q.launchTimed(sys.rank(0), 1e-3);
    const Event poisoned =
        q.launchTimed(sys.rank(1), 5e-3, {.after = doomed});
    const Event chained =
        q.launchTimed(sys.rank(1), 5e-3, {.after = poisoned});
    const Event independent = q.launchTimed(sys.rank(1), 1e-3);

    EXPECT_TRUE(q.eventFailed(doomed));
    EXPECT_TRUE(q.eventFailed(poisoned));
    EXPECT_TRUE(q.eventFailed(chained));
    EXPECT_FALSE(q.eventFailed(independent));
    // Poisoned commands charge nothing: rank 1 carries only the one
    // independent launch, not the two 5 ms poisoned ones.
    EXPECT_LT(q.rankReadySeconds(1), 5e-3);
    EXPECT_EQ(inj->stats().poisonedCommands, 2u);
}

TEST(QueueFaults, TransientTransferRetriesWithBackoffOnBus)
{
    const uint64_t kBytes = 1u << 16;
    double clean_end = 0.0;
    {
        PimSystem sys(smallSystem(128, 64));
        CommandQueue q(sys);
        clean_end = q.eventSeconds(q.memcpyAsync(
            sys.rank(0), kBytes, CopyDirection::HostToPim));
    }

    fault::FaultSpec spec;
    spec.retryBackoffSec = 1e-4;
    fault::FaultEvent glitch;
    glitch.kind = fault::FaultKind::TransientTransfer;
    glitch.atSec = 0.0;
    glitch.attempts = 1;

    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({glitch}, sys.numRanks(), spec);
    q.attachFaultInjector(inj.get());
    const Event e = q.memcpyAsync(sys.rank(0), kBytes,
                                  CopyDirection::HostToPim);
    // One corrupted attempt: the bus is held for exactly two copies
    // plus the first backoff, and the payload still lands (once).
    EXPECT_FALSE(q.eventFailed(e));
    EXPECT_DOUBLE_EQ(q.eventSeconds(e), 2.0 * clean_end + 1e-4);
    EXPECT_EQ(q.transferredBytes(), kBytes * sys.rank(0).size());
    EXPECT_EQ(inj->stats().transientTransferFaults, 1u);
    EXPECT_EQ(inj->stats().transferRetries, 1u);
    EXPECT_EQ(inj->stats().transferPermanentFailures, 0u);
}

TEST(QueueFaults, TransferFailsPermanentlyPastAttemptBudget)
{
    fault::FaultSpec spec;
    spec.maxTransferAttempts = 2;
    fault::FaultEvent burst;
    burst.kind = fault::FaultKind::TransientTransfer;
    burst.atSec = 0.0;
    burst.attempts = 5;

    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({burst}, sys.numRanks(), spec);
    q.attachFaultInjector(inj.get());
    const Event e = q.memcpyAsync(sys.rank(0), 1u << 16,
                                  CopyDirection::HostToPim);
    EXPECT_TRUE(q.eventFailed(e));
    // A failed transfer moved wire traffic but delivered no payload.
    EXPECT_EQ(q.transferredBytes(), 0u);
    EXPECT_EQ(inj->stats().transferPermanentFailures, 1u);
}

TEST(QueueFaults, CopyToDeadRankFailsWithoutDelivering)
{
    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({rankFail(0.0, 0)}, sys.numRanks());
    q.attachFaultInjector(inj.get());
    const Event e = q.memcpyAsync(sys.rank(0), 1u << 16,
                                  CopyDirection::HostToPim);
    EXPECT_TRUE(q.eventFailed(e));
    EXPECT_EQ(q.transferredBytes(), 0u);
    // The erroring attempt still held the bus.
    EXPECT_GT(q.busReadySeconds(), 0.0);
}

TEST(QueueFaults, LaunchTimeoutReapsLongLaunch)
{
    fault::FaultSpec spec;
    spec.launchTimeoutSec = 2e-3;
    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({}, sys.numRanks(), spec);
    q.attachFaultInjector(inj.get());

    const Event ok = q.launchTimed(sys.rank(0), 1e-3);
    const Event reaped = q.launchTimed(sys.rank(0), 50e-3);
    EXPECT_FALSE(q.eventFailed(ok));
    EXPECT_TRUE(q.eventFailed(reaped));
    // Reaped at start + timeout, nowhere near the natural duration.
    EXPECT_LT(q.eventSeconds(reaped), 10e-3);
    EXPECT_EQ(inj->stats().launchTimeouts, 1u);
}

TEST(QueueFaults, HangIsReapedByTimeout)
{
    fault::FaultSpec spec;
    spec.launchTimeoutSec = 2e-3;
    fault::FaultEvent hang;
    hang.kind = fault::FaultKind::LaunchHang;
    hang.atSec = 0.0;
    hang.rank = 0;

    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({hang}, sys.numRanks(), spec);
    q.attachFaultInjector(inj.get());
    // The victim launch would finish in 0.1 ms; the hang holds it until
    // the 2 ms timeout reaps it. The next launch proceeds normally.
    const Event hung = q.launchTimed(sys.rank(0), 1e-4);
    const Event next = q.launchTimed(sys.rank(0), 1e-4);
    EXPECT_TRUE(q.eventFailed(hung));
    EXPECT_GT(q.eventSeconds(hung), 2e-3);
    EXPECT_FALSE(q.eventFailed(next));
    EXPECT_EQ(inj->stats().launchHangs, 1u);
}

TEST(QueueFaultsDeathTest, HangWithoutTimeoutIsFatal)
{
    // Spec parsing forbids this combination; a programmatic plan that
    // sneaks one in must die loudly, not stall the timeline.
    fault::FaultEvent hang;
    hang.kind = fault::FaultKind::LaunchHang;
    hang.atSec = 0.0;
    hang.rank = 0;
    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({hang}, sys.numRanks());
    q.attachFaultInjector(inj.get());
    q.launchTimed(sys.rank(0), 1e-3);
    EXPECT_DEATH(q.sync(), "no launch timeout is configured");
}

TEST(QueueFaults, DegradedRankRunsSlower)
{
    fault::FaultEvent slow;
    slow.kind = fault::FaultKind::RankDegrade;
    slow.atSec = 0.0;
    slow.rank = 0;
    slow.multiplier = 3.0;
    slow.durationSec = 1.0;

    // Clean twin: the identical two-launch sequence with no injector,
    // so the issue-order overheads cancel exactly in the comparison.
    double clean_first = 0.0, clean_second = 0.0;
    {
        PimSystem sys(smallSystem(128, 64));
        CommandQueue q(sys);
        clean_first = q.eventSeconds(q.launchTimed(sys.rank(0), 2e-3));
        clean_second = q.eventSeconds(q.launchTimed(sys.rank(1), 2e-3));
    }

    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({slow}, sys.numRanks());
    q.attachFaultInjector(inj.get());
    const Event degraded = q.launchTimed(sys.rank(0), 2e-3);
    const Event normal = q.launchTimed(sys.rank(1), 2e-3);
    EXPECT_FALSE(q.eventFailed(degraded));
    // 3x multiplier: the degraded launch carries exactly 4 ms of extra
    // busy time over its clean twin; the healthy rank is untouched.
    EXPECT_EQ(q.eventSeconds(degraded), clean_first + 4e-3);
    EXPECT_EQ(q.eventSeconds(normal), clean_second);
    EXPECT_EQ(inj->stats().degradedLaunches, 1u);
}

TEST(QueueFaults, FaultFreeSpecLeavesOutcomesClean)
{
    // An armed injector whose schedule is empty must not perturb the
    // timeline: same completion times as a fault-free queue.
    double clean = 0.0;
    {
        PimSystem sys(smallSystem(128, 64));
        CommandQueue q(sys);
        q.launchTimed(sys.rank(0), 2e-3);
        q.memcpyAsync(sys.rank(1), 1u << 16, CopyDirection::HostToPim);
        clean = q.sync();
    }
    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const auto inj = injectorOf({}, sys.numRanks());
    q.attachFaultInjector(inj.get());
    const Event l = q.launchTimed(sys.rank(0), 2e-3);
    const Event c =
        q.memcpyAsync(sys.rank(1), 1u << 16, CopyDirection::HostToPim);
    EXPECT_FALSE(q.eventFailed(l));
    EXPECT_FALSE(q.eventFailed(c));
    EXPECT_EQ(q.sync(), clean);
}

// ---------------------------------------------------------------------
// Dependency-handle validation (fail fast at enqueue)
// ---------------------------------------------------------------------

TEST(QueueAfterDeathTest, GarbageSelfAndForwardReferencesAreFatal)
{
    PimSystem sys(smallSystem(128, 64));
    CommandQueue q(sys);
    const Event e0 = q.launchTimed(sys.rank(0), 1e-3);
    ASSERT_EQ(e0, 0);
    // Garbage negative handle (uninitialized struct member).
    EXPECT_DEATH(q.launchTimed(sys.rank(0), 1e-3, {.after = -3}),
                 "is not an Event handle");
    // The next command would get id 1: naming it is a self-dependency.
    EXPECT_DEATH(q.launchTimed(sys.rank(0), 1e-3, {.after = 1}),
                 "depends on itself");
    // Forward reference to a not-yet-enqueued command.
    EXPECT_DEATH(q.launchTimed(sys.rank(0), 1e-3, {.after = 7}),
                 "names the future event");
}

// ---------------------------------------------------------------------
// RankScheduler: quarantine, teardown
// ---------------------------------------------------------------------

TEST(RankSchedulerFaults, QuarantineRevokesOwnedRankAndNamesTheOwner)
{
    PimSystem sys(smallSystem(256, 64)); // 4 ranks
    RankScheduler sched(sys);
    const DpuSet grant = sched.acquireRanks(2, "serving");

    const unsigned victim = grant.ranks().front();
    EXPECT_EQ(sched.quarantine(victim), "serving");
    EXPECT_TRUE(sched.quarantined(victim));
    EXPECT_EQ(sched.ownerOf(victim), "");
    // The quarantined rank is out of circulation: the free pool lost
    // nothing (it was owned), and a full re-acquire skips it.
    EXPECT_EQ(sched.freeRankCount(), 2u);
    const DpuSet rest = sched.acquireRanks(2, "other");
    for (const unsigned r : rest.ranks())
        EXPECT_NE(r, victim);
}

TEST(RankSchedulerFaults, QuarantineFreeRankHasNoOwner)
{
    PimSystem sys(smallSystem(256, 64));
    RankScheduler sched(sys);
    sched.acquireRanks(2, "serving");
    EXPECT_EQ(sched.quarantine(3), "");
    EXPECT_TRUE(sched.quarantined(3));
    EXPECT_EQ(sched.freeRankCount(), 1u);
    EXPECT_EQ(sched.ownerOf(0), "serving");
    EXPECT_EQ(sched.ownerOf(1), "serving");
}

TEST(RankSchedulerFaultsDeathTest, DoubleQuarantineIsFatal)
{
    PimSystem sys(smallSystem(256, 64));
    RankScheduler sched(sys);
    sched.quarantine(1);
    EXPECT_DEATH(sched.quarantine(1), "already quarantined");
}

TEST(RankSchedulerFaults, ReleaseAllIsIdempotent)
{
    PimSystem sys(smallSystem(256, 64));
    RankScheduler sched(sys);
    sched.acquireRanks(3, "serving");
    EXPECT_EQ(sched.releaseAll("serving"), 3u);
    EXPECT_EQ(sched.releaseAll("serving"), 0u);
    EXPECT_EQ(sched.releaseAll("never-acquired"), 0u);
    EXPECT_EQ(sched.freeRankCount(), 4u);
}

// ---------------------------------------------------------------------
// End-to-end workload recovery
// ---------------------------------------------------------------------

namespace {

using namespace pim::workloads::llm;

ServingEngineConfig
faultDisagg(unsigned sim_threads = 1)
{
    ServingEngineConfig ecfg;
    ecfg.base.numRequests = 16;
    ecfg.base.outputTokens = 24;
    ecfg.base.promptTokens = 64;
    ecfg.base.arrivalRatePerSec = 400.0;
    ecfg.mode = ServingMode::Disaggregated;
    ecfg.simThreads = sim_threads;
    ecfg.spareRanks = 4; // 8-rank system: 4 serving (1 prefill), 4 spare
    return ecfg;
}

struct Scenario
{
    uint64_t seed = 0;
    double mtbf = 0.0;
    unsigned victim = 0;
};

/**
 * Dial one rank death onto @p target_sec: exponential inter-arrivals
 * scale linearly with the MTBF for a fixed seed, so search seeds for a
 * first failure on a victim in [victim_lo, victim_hi] whose follow-up
 * failures land past @p quiet_until_sec once the MTBF is scaled.
 */
Scenario
singleDeathScenario(double target_sec, double quiet_until_sec,
                    unsigned num_ranks, unsigned victim_lo,
                    unsigned victim_hi)
{
    fault::FaultSpec probe;
    probe.rankMtbfSec = 1.0;
    for (uint64_t seed = 1; seed < 500; ++seed) {
        const auto fails = fault::FaultPlan(probe, seed, num_ranks)
                               .eventsOfKind(fault::FaultKind::RankFail);
        if (fails.empty())
            continue;
        const fault::FaultEvent &first = fails.front();
        if (first.rank < victim_lo || first.rank > victim_hi)
            continue;
        const double mtbf = target_sec / first.atSec;
        const double second =
            fails.size() > 1 ? fails[1].atSec * mtbf : 1e30;
        if (second < quiet_until_sec)
            continue;
        return {seed, mtbf, first.rank};
    }
    ADD_FAILURE() << "no single-death fault scenario found";
    return {};
}

/** Fault-free reference on the same partition: the harness is armed
 *  (same spare pool held back) but the schedule never fires. */
constexpr double kNeverMtbfSec = 1e30;

ServingResult
runFaultyServing(double mtbf, uint64_t seed, fault::FaultPolicy policy,
                 unsigned sim_threads = 1)
{
    ServingEngineConfig ecfg = faultDisagg(sim_threads);
    ecfg.faultSpec.rankMtbfSec = mtbf;
    ecfg.faultSeed = seed;
    ecfg.faultPolicy = policy;
    return ServingEngine(ServingScheme{core::AllocatorKind::PimMallocHwSw},
                         ecfg)
        .run();
}

void
expectIdenticalWithFaults(const ServingResult &a, const ServingResult &b)
{
    EXPECT_EQ(a.throughputTokensPerSec, b.throughputTokensPerSec);
    EXPECT_EQ(a.tpotP50Ms, b.tpotP50Ms);
    EXPECT_EQ(a.tpotP99Ms, b.tpotP99Ms);
    EXPECT_EQ(a.ttftP50Ms, b.ttftP50Ms);
    EXPECT_EQ(a.ttftP99Ms, b.ttftP99Ms);
    EXPECT_EQ(a.makespanSec, b.makespanSec);
    EXPECT_EQ(a.kvShippedBytes, b.kvShippedBytes);
    EXPECT_EQ(a.completedRequests, b.completedRequests);
    EXPECT_EQ(a.lostRequests, b.lostRequests);
    EXPECT_EQ(a.lostSteps, b.lostSteps);
    EXPECT_EQ(a.rankFailures, b.rankFailures);
    EXPECT_EQ(a.recoveryBytes, b.recoveryBytes);
    EXPECT_EQ(a.mttrMeanSec, b.mttrMeanSec);
    EXPECT_EQ(a.availability, b.availability);
}

} // namespace

TEST(ServingFaults, RecoverCompletesEverythingDropShedsRequests)
{
    // Reference run on the same 4-rank partition, no failures.
    const ServingResult ref =
        runFaultyServing(kNeverMtbfSec, 7, fault::FaultPolicy::Recover);
    ASSERT_GT(ref.makespanSec, 0.0);
    EXPECT_EQ(ref.completedRequests, 16u);
    EXPECT_EQ(ref.rankFailures, 0u);
    EXPECT_EQ(ref.availability, 1.0);

    // One decode-rank death mid-run (serving owns ranks 0..3, rank 0
    // prefills, 1..3 decode).
    const Scenario scn = singleDeathScenario(
        0.5 * ref.makespanSec, 3.0 * ref.makespanSec, 8, 1, 3);
    ASSERT_GT(scn.mtbf, 0.0);

    const ServingResult rec =
        runFaultyServing(scn.mtbf, scn.seed, fault::FaultPolicy::Recover);
    EXPECT_EQ(rec.rankFailures, 1u);
    EXPECT_EQ(rec.completedRequests, 16u);
    EXPECT_EQ(rec.lostRequests, 0u);
    EXPECT_GT(rec.recoveryBytes, 0u); // KV re-shipped to the spare
    EXPECT_GT(rec.mttrMeanSec, 0.0);
    EXPECT_LT(rec.availability, 1.0);
    EXPECT_GE(rec.makespanSec, ref.makespanSec); // recovery is not free

    const ServingResult drop =
        runFaultyServing(scn.mtbf, scn.seed, fault::FaultPolicy::Drop);
    EXPECT_EQ(drop.rankFailures, 1u);
    EXPECT_GT(drop.lostRequests, 0u);
    EXPECT_EQ(drop.completedRequests + drop.lostRequests, 16u);
    EXPECT_EQ(drop.recoveryBytes, 0u);
    EXPECT_LT(drop.availability, 1.0);
}

TEST(ServingFaults, InjectedFaultsBitIdenticalAcrossSimThreads)
{
    const ServingResult ref =
        runFaultyServing(kNeverMtbfSec, 7, fault::FaultPolicy::Recover);
    const Scenario scn = singleDeathScenario(
        0.5 * ref.makespanSec, 3.0 * ref.makespanSec, 8, 1, 3);
    ASSERT_GT(scn.mtbf, 0.0);

    const ServingResult t1 =
        runFaultyServing(scn.mtbf, scn.seed, fault::FaultPolicy::Recover, 1);
    const ServingResult t4 =
        runFaultyServing(scn.mtbf, scn.seed, fault::FaultPolicy::Recover, 4);
    const ServingResult t7 =
        runFaultyServing(scn.mtbf, scn.seed, fault::FaultPolicy::Recover, 7);
    ASSERT_EQ(t1.rankFailures, 1u); // the scenario actually fired
    expectIdenticalWithFaults(t1, t4);
    expectIdenticalWithFaults(t1, t7);
}

TEST(ServingFaults, KvReshipBytesVisibleInTenantOccupancy)
{
    // Co-tenant-style wiring (registered tenant, external scheduler)
    // so trace::analyzeOccupancy attributes the task's bus traffic —
    // including the recovery re-ship — to the "serving" tenant.
    const auto runOnce = [&](double mtbf, uint64_t seed,
                             ServingResult &res,
                             trace::OccupancyReport &rep) {
        ServingEngineConfig ecfg = faultDisagg();
        ecfg.faultPolicy = fault::FaultPolicy::Recover;
        PimSystemConfig scfg;
        scfg.numDpus = ecfg.base.numDpus;
        PimSystem sys(scfg);
        trace::Recorder rec;
        CommandQueue queue(sys);
        queue.attachRecorder(&rec);
        fault::FaultSpec fspec;
        fspec.rankMtbfSec = mtbf;
        core::Session session(queue, fspec, seed);
        const TenantId tenant = queue.addTenant("serving");
        DisaggServingTask task(
            ServingScheme{core::AllocatorKind::PimMallocHwSw}, ecfg,
            queue, session.scheduler().acquireRanks(4, "serving"), tenant);
        session.add("serving", task);
        session.run();
        res = task.result();
        rep = trace::analyzeOccupancy(rec);
    };

    ServingResult ref;
    trace::OccupancyReport ref_rep;
    runOnce(kNeverMtbfSec, 7, ref, ref_rep);
    const Scenario scn = singleDeathScenario(
        0.5 * ref.makespanSec, 3.0 * ref.makespanSec, 8, 1, 3);
    ASSERT_GT(scn.mtbf, 0.0);
    ServingResult faulty;
    trace::OccupancyReport faulty_rep;
    runOnce(scn.mtbf, scn.seed, faulty, faulty_rep);
    ASSERT_EQ(faulty.rankFailures, 1u);
    ASSERT_GT(faulty.recoveryBytes, 0u);

    const auto tenantBytes = [](const trace::OccupancyReport &rep) {
        for (const trace::TenantOccupancy &t : rep.tenants)
            if (t.name == "serving")
                return t.bytes;
        return uint64_t{0};
    };
    const uint64_t ref_bytes = tenantBytes(ref_rep);
    const uint64_t faulty_bytes = tenantBytes(faulty_rep);
    ASSERT_GT(ref_bytes, 0u);
    // Recovery traffic (KV re-ship + re-decoded appends) shows up in
    // the tenant's accounted bus payload, on top of the fault-free
    // shipping volume.
    EXPECT_GT(faulty_bytes, ref_bytes);
    EXPECT_GE(faulty_bytes, faulty.recoveryBytes);
    EXPECT_GE(faulty_bytes, faulty.kvShippedBytes);
}

namespace {

using workloads::graph::GraphUpdateConfig;
using workloads::graph::GraphUpdateResult;
using workloads::graph::StructureKind;

GraphUpdateConfig
faultGraphCfg(unsigned sim_threads = 1)
{
    GraphUpdateConfig cfg;
    cfg.structure = StructureKind::LinkedList;
    cfg.allocator = core::AllocatorKind::PimMallocSw;
    // 4 ranks: under rank faults the graph owns 3, and 1 is held back
    // as the replacement.
    cfg.numDpus = 256;
    cfg.sampleDpus = 2;
    cfg.tasklets = 8;
    cfg.gen.numNodes = 2000;
    cfg.gen.numEdges = 9000;
    cfg.gen.seed = 5;
    cfg.updateRounds = 6;
    cfg.shipUpdates = true;
    cfg.simThreads = sim_threads;
    return cfg;
}

GraphUpdateResult
runFaultyGraph(double mtbf, uint64_t seed, unsigned sim_threads = 1)
{
    GraphUpdateConfig cfg = faultGraphCfg(sim_threads);
    cfg.faultSpec.rankMtbfSec = mtbf;
    cfg.faultSeed = seed;
    return runGraphUpdate(cfg);
}

} // namespace

TEST(GraphFaults, RecoverReExecutesTheLostRound)
{
    const GraphUpdateResult ref = runFaultyGraph(kNeverMtbfSec, 29);
    ASSERT_GT(ref.wallSeconds, 0.0);
    EXPECT_EQ(ref.rankFailures, 0u);
    EXPECT_EQ(ref.lostEdges, 0u);

    // Death mid-rounds on one of the graph's 3 owned ranks (the build
    // launch is untimed, so the rounds window starts near t=0).
    const Scenario scn = singleDeathScenario(
        0.5 * ref.wallSeconds, 4.0 * ref.wallSeconds, 4, 0, 2);
    ASSERT_GT(scn.mtbf, 0.0);

    const GraphUpdateResult rec = runFaultyGraph(scn.mtbf, scn.seed);
    EXPECT_EQ(rec.rankFailures, 1u);
    EXPECT_EQ(rec.lostEdges, 0u);
    EXPECT_EQ(rec.updateEdgesTotal, ref.updateEdgesTotal);
    EXPECT_GE(rec.reExecutedRounds, 1u);
    EXPECT_GT(rec.restoreBytes, 0u);
    EXPECT_GT(rec.mttrMeanSec, 0.0);
    EXPECT_LT(rec.availability, 1.0);
}

TEST(GraphFaults, LosingTheLastRankRecoversOnTheSpare)
{
    // Two ranks: the graph owns rank 0 and rank 1 is the held-back
    // spare, so the death leaves the graph with no rank at all.
    const auto run = [](double mtbf, uint64_t seed) {
        GraphUpdateConfig cfg = faultGraphCfg();
        cfg.numDpus = 128;
        cfg.faultSpec.rankMtbfSec = mtbf;
        cfg.faultSeed = seed;
        return runGraphUpdate(cfg);
    };
    const GraphUpdateResult ref = run(kNeverMtbfSec, 29);
    const Scenario scn = singleDeathScenario(
        0.5 * ref.wallSeconds, 4.0 * ref.wallSeconds, 2, 0, 0);
    ASSERT_GT(scn.mtbf, 0.0);

    const GraphUpdateResult rec = run(scn.mtbf, scn.seed);
    EXPECT_EQ(rec.rankFailures, 1u);
    EXPECT_EQ(rec.lostEdges, 0u);
    EXPECT_EQ(rec.updateEdgesTotal, ref.updateEdgesTotal);
    EXPECT_GT(rec.restoreBytes, 0u);
}

TEST(GraphFaults, LostShipmentIsReShippedNotRestored)
{
    // Paced rounds leave the bus idle between one round's launch and
    // the next round's shipment. A rank that dies in that gap is dead
    // when the shipment starts, so the shipment fails and poisons its
    // launch: the parked round's slice never landed anywhere. The
    // restore must then carry only the rounds before it; the re-ship
    // delivers the parked round's slice to the replacement.
    const auto paced = [](double mtbf, uint64_t seed,
                          trace::Recorder *rec) {
        GraphUpdateConfig cfg = faultGraphCfg();
        cfg.roundIntervalSec = 40e-6;
        cfg.faultSpec.rankMtbfSec = mtbf;
        cfg.faultSeed = seed;
        cfg.recorder = rec;
        return runGraphUpdate(cfg);
    };
    const GraphUpdateResult ref = paced(kNeverMtbfSec, 29, nullptr);
    // The gap after round 1's launch, on rank 2: it hosts sampled
    // DPU 128 (samples are DPUs 0 and 128 of 256).
    const Scenario scn = singleDeathScenario(
        0.4 * ref.wallSeconds, 4.0 * ref.wallSeconds, 4, 2, 2);
    ASSERT_GT(scn.mtbf, 0.0);
    trace::Recorder rec;
    const GraphUpdateResult r = paced(scn.mtbf, scn.seed, &rec);
    ASSERT_EQ(r.rankFailures, 1u);

    unsigned reships = 0;
    unsigned lost_round = 0;
    for (const trace::Span &s : rec.spans()) {
        const std::string prefix = "recover:updates r";
        if (s.name.compare(0, prefix.size(), prefix) == 0) {
            ++reships;
            lost_round = static_cast<unsigned>(
                std::stoul(s.name.substr(prefix.size())));
        }
    }
    ASSERT_EQ(reships, 1u) << "the scenario must lose one shipment";
    EXPECT_EQ(lost_round, 2u);
    EXPECT_EQ(r.reExecutedRounds, 1u);
    EXPECT_EQ(r.lostEdges, 0u);
    EXPECT_EQ(r.updateEdgesTotal, ref.updateEdgesTotal);

    // The restore, from the dead shard's sizes: the graph owns ranks
    // 0-2, so shard ids are DPU indices 0..191 and DPU 128 holds shard
    // 128. Its checkpoint is 8 B per node plus every base edge and the
    // update edges of the rounds before the lost one, shipped to each
    // of the replacement rank's 64 DPUs.
    const GraphUpdateConfig cfg = faultGraphCfg();
    const workloads::graph::UpdateWorkload w =
        workloads::graph::splitForUpdate(
            workloads::graph::generateGraph(cfg.gen), 1.0 / 3.0, cfg.seed);
    constexpr unsigned kShards = 192;
    constexpr unsigned kDeadShard = 128;
    uint64_t nodes = 0;
    uint64_t base = 0;
    uint64_t updates = 0;
    for (uint32_t u = 0; u < w.numNodes; ++u)
        nodes += workloads::graph::shardOf(u, kShards) == kDeadShard;
    for (const workloads::graph::Edge &e : w.baseEdges)
        base += workloads::graph::shardOf(e.src, kShards) == kDeadShard;
    for (const workloads::graph::Edge &e : w.updateEdges)
        updates += workloads::graph::shardOf(e.src, kShards) == kDeadShard;
    ASSERT_GT(updates, 0u);
    const uint64_t landed = lost_round * updates / cfg.updateRounds;
    EXPECT_EQ(r.restoreBytes,
              64 * (8 * nodes
                    + sizeof(workloads::graph::Edge) * (base + landed)));
}

TEST(GraphFaults, InjectedFaultsBitIdenticalAcrossSimThreads)
{
    const GraphUpdateResult ref = runFaultyGraph(kNeverMtbfSec, 29);
    const Scenario scn = singleDeathScenario(
        0.5 * ref.wallSeconds, 4.0 * ref.wallSeconds, 4, 0, 2);
    ASSERT_GT(scn.mtbf, 0.0);

    const GraphUpdateResult a = runFaultyGraph(scn.mtbf, scn.seed, 1);
    const GraphUpdateResult b = runFaultyGraph(scn.mtbf, scn.seed, 4);
    ASSERT_EQ(a.rankFailures, 1u);
    EXPECT_EQ(a.updateSeconds, b.updateSeconds);
    EXPECT_EQ(a.millionEdgesPerSec, b.millionEdgesPerSec);
    EXPECT_EQ(a.updateEdgesTotal, b.updateEdgesTotal);
    EXPECT_EQ(a.wallSeconds, b.wallSeconds);
    EXPECT_EQ(a.rankFailures, b.rankFailures);
    EXPECT_EQ(a.reExecutedRounds, b.reExecutedRounds);
    EXPECT_EQ(a.restoreBytes, b.restoreBytes);
    EXPECT_EQ(a.mttrMeanSec, b.mttrMeanSec);
    EXPECT_EQ(a.availability, b.availability);
}

TEST(GraphFaults, PoisonedRoundReExecutesWithoutARankDeath)
{
    // Transfer faults only, each permanent on its first attempt: a
    // corrupted shipped slice poisons its round's launch, and the task
    // holds the staged results, ships the lost slice again and re-runs
    // the round as one timed launch on the next step. No rank dies, so
    // nothing is restored.
    const GraphUpdateResult ref = runGraphUpdate(faultGraphCfg());
    ASSERT_GT(ref.wallSeconds, 0.0);

    std::vector<GraphUpdateResult> runs;
    std::vector<uint64_t> bus_bytes;
    for (const unsigned threads : {1u, 4u}) {
        GraphUpdateConfig cfg = faultGraphCfg(threads);
        cfg.faultSpec.transferMtbfSec = 0.2 * ref.wallSeconds;
        cfg.faultSpec.maxTransferAttempts = 1;
        // The default 120 s horizon would schedule millions of
        // transfer faults the rounds never reach.
        cfg.faultSpec.horizonSec = 4.0 * ref.wallSeconds;
        telemetry::Registry met;
        cfg.metrics = &met;
        runs.push_back(runGraphUpdate(cfg));
        bus_bytes.push_back(met.counter("queue.bus_bytes").value());
    }
    for (size_t i = 0; i < runs.size(); ++i) {
        const GraphUpdateResult &r = runs[i];
        // Every slice (8 B per edge) lands exactly once, and re-sending
        // the lost ones costs bus time the fault-free run never paid.
        EXPECT_EQ(bus_bytes[i], 8 * r.updateEdgesTotal);
        EXPECT_GT(r.wallSeconds, ref.wallSeconds);
        EXPECT_EQ(r.reExecutedRounds, 5u);
        EXPECT_EQ(r.rankFailures, 0u);
        EXPECT_EQ(r.restoreBytes, 0u);
        EXPECT_EQ(r.lostEdges, 0u);
        EXPECT_EQ(r.availability, 1.0);
        // A failed round's results are committed exactly once.
        EXPECT_EQ(r.updateSeconds, ref.updateSeconds);
        EXPECT_EQ(r.millionEdgesPerSec, ref.millionEdgesPerSec);
        EXPECT_EQ(r.allocStats.mallocCalls, ref.allocStats.mallocCalls);
    }
    EXPECT_EQ(runs[0].wallSeconds, runs[1].wallSeconds);
}

/**
 * @file
 * Tests for core::Session, the one driver loop behind every stepper:
 * clock-ordered co-scheduling, spare-rank grants, the fault wiring
 * (rank death -> quarantine -> owner notified -> replacement granted
 * only when the stepper waits for one), finished tenants returning their
 * grants, waiting replacements granted in failure order, unique tenant
 * names, the fatal when no replacement is left, and a real two-tenant
 * co-run that stays bit-identical across simulation thread counts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/command_queue.hh"
#include "core/pim_system.hh"
#include "core/session.hh"
#include "fault/fault_plan.hh"
#include "telemetry/registry.hh"
#include "workloads/graph/update_driver.hh"
#include "workloads/llm/serving_engine.hh"

using namespace pim;
using namespace pim::core;

namespace {

/** Four one-DPU ranks with a small MRAM. */
PimSystemConfig
fourRanks()
{
    PimSystemConfig cfg;
    cfg.numDpus = 4;
    cfg.dpusPerRank = 1;
    cfg.dpuCfg.mramBytes = 1u << 20;
    return cfg;
}

/**
 * A scripted stepper: every step advances its clock by a fixed amount
 * and appends its name to a shared log. Under Recover each rank failure
 * makes it wait for one replacement; under Drop it never waits.
 */
class FakeStepper : public Stepper
{
  public:
    FakeStepper(std::string name, unsigned steps, double dt, bool recover,
                std::vector<std::string> &log)
        : name_(std::move(name)), steps_(steps), dt_(dt), recover_(recover),
          log_(log)
    {
    }

    bool done() const override { return stepped_ >= steps_; }
    double clockSeconds() const override { return clock_; }

    void
    step() override
    {
        ASSERT_EQ(waiting_, 0u);
        ++stepped_;
        clock_ += dt_;
        log_.push_back(name_);
    }

    bool
    onRankFailed(unsigned rank, double) override
    {
        failed.push_back(rank);
        if (recover_)
            ++waiting_;
        return recover_;
    }

    void
    onReplacementGranted(const DpuSet &replacement) override
    {
        ASSERT_GT(waiting_, 0u);
        --waiting_;
        granted.push_back(replacement.ranks().front());
    }

    std::vector<unsigned> failed;
    std::vector<unsigned> granted;

  private:
    std::string name_;
    unsigned steps_;
    double dt_;
    bool recover_;
    std::vector<std::string> &log_;
    unsigned stepped_ = 0;
    unsigned waiting_ = 0;
    double clock_ = 0.0;
};

/** A rank-death spec whose first death hits a rank in [lo, hi] at t=1 s
 *  and whose second death lands after 100 s. */
struct OneDeath
{
    fault::FaultSpec spec;
    uint64_t seed = 0;
    unsigned victim = 0;
};

OneDeath
oneDeathAtOneSecond(unsigned lo, unsigned hi)
{
    fault::FaultSpec probe;
    probe.rankMtbfSec = 1.0;
    for (uint64_t seed = 1; seed < 500; ++seed) {
        const auto fails = fault::FaultPlan(probe, seed, 4)
                               .eventsOfKind(fault::FaultKind::RankFail);
        if (fails.empty() || fails[0].rank < lo || fails[0].rank > hi)
            continue;
        const double mtbf = 1.0 / fails[0].atSec;
        if (fails.size() > 1 && fails[1].atSec * mtbf < 100.0)
            continue;
        OneDeath d;
        d.spec.rankMtbfSec = mtbf;
        d.seed = seed;
        d.victim = fails[0].rank;
        return d;
    }
    ADD_FAILURE() << "no single-death scenario found";
    return {};
}

/** A rank-death spec and seed that kill rank 2 at 1 s and rank 1
 *  before 2 s, and no other rank before 4 s. */
std::pair<fault::FaultSpec, uint64_t>
rankTwoThenRankOneDie()
{
    fault::FaultSpec probe;
    probe.rankMtbfSec = 1.0;
    for (uint64_t seed = 1; seed < 2000; ++seed) {
        // A rank dies at its first scheduled failure.
        std::vector<fault::FaultEvent> deaths;
        for (const fault::FaultEvent &e :
             fault::FaultPlan(probe, seed, 4)
                 .eventsOfKind(fault::FaultKind::RankFail)) {
            if (std::none_of(deaths.begin(), deaths.end(),
                             [&](const fault::FaultEvent &d) {
                                 return d.rank == e.rank;
                             }))
                deaths.push_back(e);
        }
        if (deaths.size() < 2 || deaths[0].rank != 2 || deaths[1].rank != 1)
            continue;
        const double mtbf = 1.0 / deaths[0].atSec;
        if (deaths[1].atSec * mtbf >= 2.0
            || (deaths.size() > 2 && deaths[2].atSec * mtbf < 4.0))
            continue;
        fault::FaultSpec spec;
        spec.rankMtbfSec = mtbf;
        return {spec, seed};
    }
    ADD_FAILURE() << "no two-death scenario found";
    return {};
}

} // namespace

TEST(Session, StepsTheTenantWhoseClockIsBehindTiesToFirstAdded)
{
    PimSystem sys(fourRanks());
    CommandQueue queue(sys);
    Session session(queue);
    std::vector<std::string> log;
    FakeStepper a("a", 3, 1.0, true, log);
    FakeStepper b("b", 2, 1.5, true, log);
    session.add("a", a);
    session.add("b", b);
    EXPECT_EQ(session.run(), 0.0); // nothing was enqueued
    EXPECT_EQ(log, (std::vector<std::string>{"a", "b", "a", "b", "a"}));
    EXPECT_TRUE(a.done());
    EXPECT_TRUE(b.done());
}

TEST(Session, SparesAreHeldBackOnlyWhenRanksCanDie)
{
    PimSystem sys(fourRanks());
    {
        CommandQueue queue(sys);
        Session session(queue);
        EXPECT_FALSE(session.rankFaults());
        EXPECT_EQ(session.acquireRest("t", 2, 1).ranks().size(), 4u);
    }
    fault::FaultSpec deaths;
    deaths.rankMtbfSec = 1e30;
    {
        CommandQueue queue(sys);
        Session session(queue, deaths, 1);
        EXPECT_TRUE(session.rankFaults());
        EXPECT_EQ(session.acquireRest("t", 2, 1).ranks().size(), 2u);
    }
    {
        // Never fewer than minRanks are granted.
        CommandQueue queue(sys);
        Session session(queue, deaths, 1);
        EXPECT_EQ(session.acquireRest("t", 9, 3).ranks().size(), 3u);
    }
    fault::FaultSpec glitches;
    glitches.transferMtbfSec = 1.0;
    {
        CommandQueue queue(sys);
        Session session(queue, glitches, 1);
        EXPECT_NE(queue.faultInjector(), nullptr);
        EXPECT_FALSE(session.rankFaults());
        EXPECT_EQ(session.acquireRest("t", 2, 1).ranks().size(), 4u);
    }
}

TEST(Session, DetachesItsInjectorFromTheQueue)
{
    PimSystem sys(fourRanks());
    CommandQueue queue(sys);
    fault::FaultSpec deaths;
    deaths.rankMtbfSec = 1.0;
    {
        Session session(queue, deaths, 1);
        EXPECT_NE(queue.faultInjector(), nullptr);
    }
    EXPECT_EQ(queue.faultInjector(), nullptr);
}

TEST(Session, RecoverGetsTheSpareDropAsksForNothing)
{
    const OneDeath d = oneDeathAtOneSecond(0, 2);
    for (const bool recover : {true, false}) {
        PimSystem sys(fourRanks());
        CommandQueue queue(sys);
        Session session(queue, d.spec, d.seed);
        const DpuSet part = session.acquireRest("t", 1, 1); // ranks 0..2
        ASSERT_EQ(part.ranks().size(), 3u);
        std::vector<std::string> log;
        FakeStepper t("t", 4, 0.75, recover, log);
        session.add("t", t);
        session.run();
        EXPECT_EQ(t.failed, std::vector<unsigned>{d.victim});
        EXPECT_TRUE(session.scheduler().quarantined(d.victim));
        if (recover)
            EXPECT_EQ(t.granted, std::vector<unsigned>{3});
        else
            EXPECT_TRUE(t.granted.empty());
        // The finished tenant returned its grant.
        EXPECT_EQ(session.scheduler().freeRankCount(), 3u);
    }
}

TEST(Session, DeathDuringTheFinalStepCountsAgainstTheTenant)
{
    // The death at t=1 s is only observed after the final step (clock
    // 1.5 s); the rank died while the tenant still ran on it.
    const OneDeath d = oneDeathAtOneSecond(0, 2);
    PimSystem sys(fourRanks());
    CommandQueue queue(sys);
    Session session(queue, d.spec, d.seed);
    session.acquireRest("t", 1, 1);
    std::vector<std::string> log;
    FakeStepper t("t", 2, 0.75, false, log);
    session.add("t", t);
    session.run();
    EXPECT_EQ(t.failed, std::vector<unsigned>{d.victim});
}

TEST(Session, FinishedTenantsGrantServesAsReplacement)
{
    // No spare is held back: the replacement for b's dead rank can only
    // come from a's grant, returned when a finished.
    const OneDeath d = oneDeathAtOneSecond(2, 3);
    PimSystem sys(fourRanks());
    CommandQueue queue(sys);
    Session session(queue, d.spec, d.seed);
    RankScheduler &sched = session.scheduler();
    sched.acquireRanks(2, "a");
    sched.acquireRanks(2, "b");
    std::vector<std::string> log;
    FakeStepper a("a", 1, 0.1, true, log);
    FakeStepper b("b", 4, 0.75, true, log);
    session.add("a", a);
    session.add("b", b);
    session.run();
    EXPECT_TRUE(a.failed.empty());
    EXPECT_EQ(b.failed, std::vector<unsigned>{d.victim});
    EXPECT_EQ(b.granted, std::vector<unsigned>{0});
}

TEST(Session, WaitingReplacementsAreGrantedInFailureOrder)
{
    // No spare: rank 2 (c's) and then rank 1 (b's) die during a's only
    // step, so both replacement requests wait. a's release then grants
    // its ranks in failure order, lowest rank first.
    const auto [spec, seed] = rankTwoThenRankOneDie();
    PimSystem sys(fourRanks());
    CommandQueue queue(sys);
    telemetry::Registry met;
    queue.attachMetrics(&met);
    Session session(queue, spec, seed);
    RankScheduler &sched = session.scheduler();
    sched.acquireRanks(1, "a"); // rank 0
    sched.acquireRanks(1, "b"); // rank 1
    sched.acquireRanks(1, "c"); // rank 2
    sched.acquireRanks(1, "a"); // rank 3
    std::vector<std::string> log;
    FakeStepper a("a", 1, 2.0, true, log);
    FakeStepper b("b", 4, 0.75, true, log);
    FakeStepper c("c", 4, 0.75, true, log);
    session.add("a", a);
    session.add("b", b);
    session.add("c", c);
    session.run();
    EXPECT_TRUE(a.failed.empty());
    EXPECT_EQ(b.failed, std::vector<unsigned>{1});
    EXPECT_EQ(c.failed, std::vector<unsigned>{2});
    EXPECT_EQ(c.granted, std::vector<unsigned>{0});
    EXPECT_EQ(b.granted, std::vector<unsigned>{3});
    EXPECT_EQ(met.counter("ranks.waits").value(), 2u);
    EXPECT_TRUE(b.done());
    EXPECT_TRUE(c.done());
}

TEST(Session, CountsIntoTheQueueRegistry)
{
    PimSystem sys(fourRanks());
    CommandQueue queue(sys);
    telemetry::Registry met;
    queue.attachMetrics(&met);
    fault::FaultSpec deaths;
    deaths.rankMtbfSec = 1e30; // armed, never fires
    Session session(queue, deaths, 1);
    session.acquireRest("t", 1, 1);
    std::vector<std::string> log;
    FakeStepper t("t", 1, 0.5, true, log);
    session.add("t", t);
    session.run();
    // The scheduler's grant and release, and the injector's statistics
    // after the run, land in the registry the queue carries.
    EXPECT_EQ(met.counter("ranks.grants").value(), 1u);
    EXPECT_EQ(met.counter("ranks.granted_ranks").value(), 3u);
    EXPECT_EQ(met.counter("ranks.releases").value(), 1u);
    EXPECT_EQ(met.gauges().at("ranks.free").value(), 4.0);
    EXPECT_EQ(met.counters().count("fault.rank_failures"), 1u);
}

TEST(SessionDeathTest, RegistryAttachedAfterTheSessionIsFatal)
{
    EXPECT_DEATH(
        {
            PimSystem sys(fourRanks());
            CommandQueue queue(sys);
            Session session(queue);
            telemetry::Registry met;
            queue.attachMetrics(&met);
            session.run();
        },
        "registry changed after the session was built");
}

TEST(SessionDeathTest, DuplicateTenantNameIsFatal)
{
    // The name owns a grant: a second stepper under it would release
    // the first one's ranks when either finished.
    EXPECT_DEATH(
        {
            PimSystem sys(fourRanks());
            CommandQueue queue(sys);
            Session session(queue);
            std::vector<std::string> log;
            FakeStepper a("a", 1, 1.0, true, log);
            FakeStepper b("b", 1, 1.0, true, log);
            session.add("t", a);
            session.add("t", b);
        },
        "tenant 't' is already in the session");
}

TEST(SessionDeathTest, DeathWithNoFreeReplacementIsFatal)
{
    const OneDeath d = oneDeathAtOneSecond(0, 3);
    EXPECT_DEATH(
        {
            PimSystem sys(fourRanks());
            CommandQueue queue(sys);
            Session session(queue, d.spec, d.seed);
            session.acquireRest("t", 0, 1); // every rank, no spare
            std::vector<std::string> log;
            FakeStepper t("t", 4, 0.75, true, log);
            session.add("t", t);
            session.run();
        },
        "no free replacement left");
}

namespace {

struct CoRun
{
    workloads::llm::ServingResult serving;
    workloads::graph::GraphUpdateResult graph;
    double makespan = 0.0;
};

/** The serving + graph co-run of bench_multi_tenant, scaled down. */
CoRun
coRun(unsigned sim_threads, const fault::FaultSpec &faults)
{
    PimSystemConfig scfg;
    scfg.numDpus = 512; // 8 ranks
    scfg.samplePerRank = true;
    scfg.simThreads = sim_threads;
    PimSystem sys(scfg);
    CommandQueue queue(sys);
    Session session(queue, faults, 11);
    const TenantId t_serving = queue.addTenant("serving");
    const TenantId t_graph = queue.addTenant("graph");

    workloads::llm::ServingEngineConfig ecfg;
    ecfg.mode = workloads::llm::ServingMode::Disaggregated;
    ecfg.base.numRequests = 12;
    ecfg.base.outputTokens = 16;
    ecfg.base.promptTokens = 64;
    ecfg.base.arrivalRatePerSec = 400.0;
    ecfg.simThreads = sim_threads;
    workloads::llm::DisaggServingTask serving(
        workloads::llm::ServingScheme{AllocatorKind::PimMallocHwSw}, ecfg,
        queue, session.scheduler().acquireRanks(4, "serving"), t_serving);

    workloads::graph::GraphUpdateConfig gcfg;
    gcfg.structure = workloads::graph::StructureKind::LinkedList;
    gcfg.allocator = AllocatorKind::PimMallocSw;
    gcfg.numDpus = scfg.numDpus;
    gcfg.tasklets = 8;
    gcfg.gen.numNodes = 2000;
    gcfg.gen.numEdges = 9000;
    gcfg.updateRounds = 4;
    gcfg.shipUpdates = true;
    gcfg.roundIntervalSec = 0.01;
    gcfg.simThreads = sim_threads;
    workloads::graph::GraphUpdateTask graph(
        gcfg, queue, session.acquireRest("graph", 1, 1), t_graph);

    session.add("serving", serving);
    session.add("graph", graph);
    CoRun out;
    out.makespan = session.run();
    out.serving = serving.result();
    out.graph = graph.result();
    return out;
}

void
expectSameCoRun(const CoRun &a, const CoRun &b)
{
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.serving.makespanSec, b.serving.makespanSec);
    EXPECT_EQ(a.serving.tpotP99Ms, b.serving.tpotP99Ms);
    EXPECT_EQ(a.serving.ttftP95Ms, b.serving.ttftP95Ms);
    EXPECT_EQ(a.serving.kvShippedBytes, b.serving.kvShippedBytes);
    EXPECT_EQ(a.serving.completedRequests, b.serving.completedRequests);
    EXPECT_EQ(a.graph.wallSeconds, b.graph.wallSeconds);
    EXPECT_EQ(a.graph.updateSeconds, b.graph.updateSeconds);
    EXPECT_EQ(a.graph.allocStats.mallocCalls, b.graph.allocStats.mallocCalls);
    EXPECT_EQ(a.graph.traffic.totalBytes(), b.graph.traffic.totalBytes());
}

} // namespace

TEST(Session, CoTenantRunIsThreadCountInvariant)
{
    const CoRun one = coRun(1, {});
    ASSERT_EQ(one.serving.completedRequests, 12u);
    ASSERT_GT(one.graph.wallSeconds, 0.0);
    expectSameCoRun(one, coRun(4, {}));

    fault::FaultSpec glitches;
    glitches.transferMtbfSec = 0.05;
    const CoRun faulty = coRun(1, glitches);
    EXPECT_EQ(faulty.serving.completedRequests, 12u);
    EXPECT_GT(faulty.makespan, one.makespan); // retries cost bus time
    expectSameCoRun(faulty, coRun(3, glitches));
}

#include "core/session.hh"

#include <algorithm>
#include <optional>

#include "fault/injector.hh"
#include "telemetry/registry.hh"
#include "util/logging.hh"

namespace pim::core {

Session::Session(CommandQueue &queue, const fault::FaultSpec &faults,
                 uint64_t faultSeed)
    : queue_(queue), sched_(queue.system()),
      met_(queue.metricsRegistry())
{
    sched_.attachMetrics(met_);
    if (faults.enabled()) {
        inj_ = std::make_unique<fault::FaultInjector>(fault::FaultPlan(
            faults, faultSeed, queue.system().numRanks()));
        queue_.attachFaultInjector(inj_.get());
    }
}

Session::~Session()
{
    if (inj_ != nullptr)
        queue_.attachFaultInjector(nullptr);
}

bool
Session::rankFaults() const
{
    return inj_ != nullptr && inj_->spec().rankMtbfSec > 0.0;
}

DpuSet
Session::acquireRest(const std::string &tenant, unsigned spares,
                     unsigned minRanks)
{
    const unsigned free = sched_.freeRankCount();
    const unsigned held = rankFaults()
        ? std::min(spares, free > minRanks ? free - minRanks : 0u)
        : 0u;
    return sched_.acquireRanks(free - held, tenant);
}

void
Session::add(const std::string &tenant, Stepper &task)
{
    PIM_ASSERT(!tenant.empty(), "a session tenant needs a name");
    // The name owns a grant: a second stepper under it would have its
    // ranks released when the first one finished.
    for (const Tenant &t : tenants_) {
        if (t.name == tenant)
            PIM_FATAL("tenant '", tenant, "' is already in the session");
    }
    tenants_.push_back({tenant, &task});
}

void
Session::grantWaiting()
{
    while (!waiting_.empty()) {
        const std::optional<DpuSet> rank =
            sched_.tryAcquireRanks(1, waiting_.front().name);
        if (!rank)
            return;
        Stepper *task = waiting_.front().task;
        waiting_.pop_front();
        task->onReplacementGranted(*rank);
    }
}

double
Session::run()
{
    PIM_ASSERT(queue_.metricsRegistry() == met_,
               "the queue's metrics registry changed after the session "
               "was built: attach observers to the queue first");
    for (;;) {
        // The unfinished tenant whose clock is behind; ties go to the
        // one added first.
        Tenant *next = nullptr;
        for (Tenant &t : tenants_) {
            if (!t.task->done()
                && (next == nullptr
                    || t.task->clockSeconds() < next->task->clockSeconds()))
                next = &t;
        }
        if (next == nullptr)
            break;
        next->task->step();
        if (!rankFaults())
            continue;
        // Deaths up to the stepped clock go to their owners first: a
        // rank that died during a tenant's final step still counts
        // against that tenant.
        for (const fault::FaultEvent &ev :
             inj_->drainFailedRanks(next->task->clockSeconds())) {
            const std::string owner = sched_.quarantine(ev.rank);
            const auto t =
                std::find_if(tenants_.begin(), tenants_.end(),
                             [&](const Tenant &x) { return x.name == owner; });
            // Recover pauses the stepper until a replacement joins; Drop
            // shrinks it and asks for nothing.
            if (t == tenants_.end()
                || !t->task->onRankFailed(ev.rank, ev.atSec))
                continue;
            waiting_.push_back(*t);
            grantWaiting();
            // Still listed = no rank was free for it: the request waits.
            if (!waiting_.empty() && met_ != nullptr)
                met_->counter("ranks.waits").add();
        }
        // Then a finished tenant returns its grant: later deaths there
        // hit free ranks (no owner to tell), and the freed ranks can
        // serve as replacements for the tenants still running.
        for (const Tenant &t : tenants_) {
            if (t.task->done() && sched_.releaseAll(t.name) > 0)
                grantWaiting();
        }
        // A finished tenant may stay listed (its rank died during its
        // last step); one with steps left cannot run without its rank.
        const auto stuck =
            std::find_if(waiting_.begin(), waiting_.end(),
                         [](const Tenant &x) { return !x.task->done(); });
        if (stuck != waiting_.end()) {
            PIM_FATAL("tenant '", stuck->name, "': a rank failed with no "
                      "free replacement left (", sched_.freeRankCount(),
                      " free): hold more spare ranks back or shorten the "
                      "run");
        }
    }
    const double makespan = queue_.sync();
    if (inj_ != nullptr && met_ != nullptr)
        inj_->exportMetrics(*met_);
    return makespan;
}

} // namespace pim::core

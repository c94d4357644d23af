#include "core/session.hh"

#include <algorithm>

#include "fault/injector.hh"
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
    tenants_.push_back({tenant, &task});
    if (!rankFaults())
        return;
    sched_.onRevoke(tenant, [this, &task, tenant](unsigned rank) {
        task.onRankFailed(rank, inj_->rankFailSeconds(rank));
        // Recover pauses the stepper until a replacement joins; Drop
        // shrinks it and asks for nothing.
        if (task.waitingReplacement()) {
            sched_.requestRanks(1, tenant, [&task](DpuSet replacement) {
                task.onReplacementGranted(replacement);
            });
        }
    });
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
             inj_->drainFailedRanks(next->task->clockSeconds()))
            sched_.quarantine(ev.rank);
        // Then a finished tenant returns its grant: later deaths there
        // hit free ranks (no revocation), and the freed ranks can serve
        // as replacements for the tenants still running.
        for (const Tenant &t : tenants_) {
            if (t.task->done())
                sched_.releaseAll(t.name);
        }
        for (const Tenant &t : tenants_) {
            if (!t.task->done() && t.task->waitingReplacement()) {
                PIM_FATAL("tenant '", t.name, "': a rank failed with no "
                          "free replacement left (", sched_.freeRankCount(),
                          " free): hold more spare ranks back or shorten "
                          "the run");
            }
        }
    }
    const double makespan = queue_.sync();
    if (inj_ != nullptr && met_ != nullptr)
        inj_->exportMetrics(*met_);
    return makespan;
}

} // namespace pim::core

#include "fault/fault_plan.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/logging.hh"
#include "util/rng.hh"

namespace pim::fault {

const char *
faultKindName(FaultKind kind)
{
    switch (kind) {
      case FaultKind::RankFail: return "rank-fail";
      case FaultKind::TransientTransfer: return "xfer-transient";
      case FaultKind::RankDegrade: return "rank-degrade";
      case FaultKind::LaunchHang: return "launch-hang";
    }
    return "?";
}

bool
FaultSpec::enabled() const
{
    return rankMtbfSec > 0.0 || transferMtbfSec > 0.0 ||
           degradeMtbfSec > 0.0 || hangMtbfSec > 0.0;
}

namespace {

double
parseDouble(const std::string &key, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0' || value.empty())
        PIM_FATAL("--fault-spec: value for '", key, "' is not a number: '",
                  value, "'");
    if (!std::isfinite(v))
        PIM_FATAL("--fault-spec: value for '", key, "' must be finite, "
                  "got '", value, "'");
    if (v < 0.0)
        PIM_FATAL("--fault-spec: '", key, "' must be >= 0, got ", value);
    return v;
}

} // namespace

FaultSpec
FaultSpec::parse(const std::string &spec)
{
    FaultSpec out;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(pos, comma - pos);
        pos = comma + 1;
        if (item.empty())
            continue;
        const size_t eq = item.find('=');
        if (eq == std::string::npos)
            PIM_FATAL("--fault-spec: expected key=value, got '", item,
                      "' (spec: \"", spec, "\")");
        const std::string key = item.substr(0, eq);
        const std::string value = item.substr(eq + 1);
        const double v = parseDouble(key, value);
        if (key == "mtbf") {
            out.rankMtbfSec = v;
        } else if (key == "xfer-mtbf") {
            out.transferMtbfSec = v;
        } else if (key == "degrade-mtbf") {
            out.degradeMtbfSec = v;
        } else if (key == "degrade-mult") {
            if (v < 1.0)
                PIM_FATAL("--fault-spec: degrade-mult must be >= 1, got ",
                          value);
            out.degradeMultiplier = v;
        } else if (key == "degrade-dur") {
            out.degradeDurationSec = v;
        } else if (key == "hang-mtbf") {
            out.hangMtbfSec = v;
        } else if (key == "timeout") {
            out.launchTimeoutSec = v;
        } else if (key == "horizon") {
            if (v <= 0.0)
                PIM_FATAL("--fault-spec: horizon must be > 0, got ", value);
            out.horizonSec = v;
        } else if (key == "backoff") {
            out.retryBackoffSec = v;
        } else if (key == "backoff-cap") {
            out.retryBackoffCapSec = v;
        } else if (key == "max-attempts") {
            if (v < 1.0 || v != static_cast<unsigned>(v))
                PIM_FATAL("--fault-spec: max-attempts must be a positive "
                          "integer, got ", value);
            out.maxTransferAttempts = static_cast<unsigned>(v);
        } else {
            PIM_FATAL("--fault-spec: unknown key '", key,
                      "' (known: mtbf, xfer-mtbf, degrade-mtbf, "
                      "degrade-mult, degrade-dur, hang-mtbf, timeout, "
                      "horizon, backoff, backoff-cap, max-attempts)");
        }
    }
    if (out.hangMtbfSec > 0.0 && out.launchTimeoutSec <= 0.0)
        PIM_FATAL("--fault-spec: hang-mtbf requires a launch timeout "
                  "(add timeout=<sec>): a hung launch with no timeout "
                  "would stall the simulated timeline forever");
    return out;
}

FaultSpec
FaultSpec::fromKnobs(const std::string &spec, double mtbfOverride)
{
    FaultSpec out = parse(spec);
    if (mtbfOverride > 0.0)
        out.rankMtbfSec = mtbfOverride;
    return out;
}

namespace {

/** Schedule order: (atSec, kind, rank). */
void
sortEvents(std::vector<FaultEvent> &events)
{
    std::sort(events.begin(), events.end(),
              [](const FaultEvent &a, const FaultEvent &b) {
                  if (a.atSec != b.atSec)
                      return a.atSec < b.atSec;
                  if (a.kind != b.kind)
                      return static_cast<int>(a.kind) <
                             static_cast<int>(b.kind);
                  return a.rank < b.rank;
              });
}

} // namespace

FaultPlan::FaultPlan(const FaultSpec &spec, uint64_t seed,
                     unsigned numRanks)
    : spec_(spec), numRanks_(numRanks)
{
    PIM_ASSERT(numRanks > 0, "FaultPlan needs at least one rank");
    const util::Rng root(seed);

    // Each class owns a named sub-stream: a Poisson process of
    // exponential inter-arrival gaps over [0, horizon), with victim
    // ranks (and per-event parameters) drawn from the same stream so
    // the whole class is a function of exactly one (seed, name) pair.
    const auto poisson = [&](const char *name, double mtbfSec,
                             auto &&emit) {
        if (mtbfSec <= 0.0)
            return;
        util::Rng rng = root.stream(name);
        double t = rng.exponential(1.0 / mtbfSec);
        while (t < spec_.horizonSec) {
            emit(rng, t);
            t += rng.exponential(1.0 / mtbfSec);
        }
    };

    poisson("fault/rank-fail", spec_.rankMtbfSec,
            [&](util::Rng &rng, double t) {
                FaultEvent e;
                e.kind = FaultKind::RankFail;
                e.atSec = t;
                e.rank = static_cast<unsigned>(rng.uniformInt(numRanks_));
                events_.push_back(e);
            });
    poisson("fault/xfer", spec_.transferMtbfSec,
            [&](util::Rng &rng, double t) {
                FaultEvent e;
                e.kind = FaultKind::TransientTransfer;
                e.atSec = t;
                // Mostly single-attempt glitches with a geometric tail
                // of burst errors, so retries occasionally stack.
                e.attempts = 1;
                while (e.attempts < spec_.maxTransferAttempts &&
                       rng.bernoulli(0.35))
                    ++e.attempts;
                events_.push_back(e);
            });
    poisson("fault/degrade", spec_.degradeMtbfSec,
            [&](util::Rng &rng, double t) {
                FaultEvent e;
                e.kind = FaultKind::RankDegrade;
                e.atSec = t;
                e.rank = static_cast<unsigned>(rng.uniformInt(numRanks_));
                e.multiplier = spec_.degradeMultiplier;
                e.durationSec = spec_.degradeDurationSec;
                events_.push_back(e);
            });
    poisson("fault/hang", spec_.hangMtbfSec,
            [&](util::Rng &rng, double t) {
                FaultEvent e;
                e.kind = FaultKind::LaunchHang;
                e.atSec = t;
                e.rank = static_cast<unsigned>(rng.uniformInt(numRanks_));
                events_.push_back(e);
            });

    sortEvents(events_);
}

FaultPlan::FaultPlan(const FaultSpec &spec,
                     std::vector<FaultEvent> events, unsigned numRanks)
    : spec_(spec), numRanks_(numRanks), events_(std::move(events))
{
    PIM_ASSERT(numRanks > 0, "FaultPlan needs at least one rank");
    for (const FaultEvent &e : events_) {
        PIM_ASSERT(e.rank < numRanks_, "fault event victim rank ",
                   e.rank, " outside the ", numRanks_, "-rank system");
    }
    sortEvents(events_);
}

std::vector<FaultEvent>
FaultPlan::eventsOfKind(FaultKind kind) const
{
    std::vector<FaultEvent> out;
    for (const FaultEvent &e : events_)
        if (e.kind == kind)
            out.push_back(e);
    return out;
}

} // namespace pim::fault

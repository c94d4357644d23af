#include "trace/trace.hh"

#include <algorithm>

#include "util/logging.hh"

namespace pim::trace {

void
Recorder::record(Span s)
{
    PIM_ASSERT(s.t1 >= s.t0, "span ends before it starts: ", s.name,
               " [", s.t0, ", ", s.t1, ")");
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

int
Recorder::customLaneLocked(const std::string &name, bool resource)
{
    for (size_t i = 0; i < customNames_.size(); ++i) {
        if (customNames_[i] == name) {
            if (resource)
                customResource_[i] = true;
            return -1 - static_cast<int>(i);
        }
    }
    customNames_.push_back(name);
    customResource_.push_back(resource);
    return -static_cast<int>(customNames_.size());
}

int
Recorder::customLane(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return customLaneLocked(name, /*resource=*/false);
}

int
Recorder::resourceLane(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu_);
    return customLaneLocked(name, /*resource=*/true);
}

bool
Recorder::isResourceLane(int lane) const
{
    if (!isCustomLane(lane))
        return true;
    std::lock_guard<std::mutex> lock(mu_);
    const size_t idx = static_cast<size_t>(-1 - lane);
    PIM_ASSERT(idx < customResource_.size(), "unknown custom lane ",
               lane);
    return customResource_[idx];
}

size_t
Recorder::spanCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

double
Recorder::endSeconds() const
{
    std::lock_guard<std::mutex> lock(mu_);
    double end = 0.0;
    for (const Span &s : spans_)
        end = std::max(end, s.t1);
    return end;
}

void
Recorder::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
}

std::string
Recorder::laneName(int lane) const
{
    if (lane == kHostLane)
        return "host";
    if (lane == kBusLane)
        return "bus";
    if (isRankLane(lane))
        return "rank" + std::to_string(rankOfLane(lane));
    std::lock_guard<std::mutex> lock(mu_);
    const size_t idx = static_cast<size_t>(-1 - lane);
    PIM_ASSERT(idx < customNames_.size(), "unknown custom lane ", lane);
    return customNames_[idx];
}

uint64_t
Recorder::laneOrderKey(int lane)
{
    // host, bus, ranks ascending, customs in creation order.
    if (lane == kHostLane)
        return 0;
    if (lane == kBusLane)
        return 1;
    if (isRankLane(lane))
        return (uint64_t{1} << 32) + rankOfLane(lane);
    return (uint64_t{2} << 32) + static_cast<uint64_t>(-1 - lane);
}

std::vector<int>
Recorder::lanes() const
{
    std::vector<int> out;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const Span &s : spans_) {
            if (std::find(out.begin(), out.end(), s.lane) == out.end())
                out.push_back(s.lane);
        }
    }
    std::sort(out.begin(), out.end(), [](int a, int b) {
        return laneOrderKey(a) < laneOrderKey(b);
    });
    return out;
}

} // namespace pim::trace

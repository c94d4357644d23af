#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace pim::util {

void
Percentile::add(double x)
{
    samples_.push_back(x);
    sorted_ = false;
}

double
Percentile::percentile(double p) const
{
    PIM_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    if (samples_.empty())
        return 0.0;
    if (!sorted_) {
        std::sort(samples_.begin(), samples_.end());
        sorted_ = true;
    }
    // Nearest-rank with linear interpolation between adjacent order
    // statistics (the "exclusive" definition used by numpy's default).
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const size_t lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
}

double
Percentile::mean() const
{
    if (samples_.empty())
        return 0.0;
    double s = 0.0;
    for (double x : samples_)
        s += x;
    return s / static_cast<double>(samples_.size());
}

void
Percentile::reset()
{
    samples_.clear();
    sorted_ = true;
}

double
geomean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        PIM_ASSERT(x > 0.0, "geomean requires positive values");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace pim::util

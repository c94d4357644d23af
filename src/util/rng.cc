#include "util/rng.hh"

#include <cmath>

#include "util/logging.hh"

namespace pim::util {

namespace {

/** splitmix64 step, used only for seeding. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

uint64_t
rotl(uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t x = seed;
    for (auto &s : s_)
        s = splitmix64(x);
}

uint64_t
Rng::next()
{
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

uint64_t
Rng::uniformInt(uint64_t bound)
{
    PIM_ASSERT(bound > 0, "uniformInt bound must be positive");
    // Lemire's nearly-divisionless method would be overkill here; simple
    // rejection keeps the stream easy to reason about in tests.
    const uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        uint64_t r = next();
        if (r >= threshold)
            return r % bound;
    }
}

uint64_t
Rng::uniformRange(uint64_t lo, uint64_t hi)
{
    PIM_ASSERT(lo <= hi, "uniformRange requires lo <= hi");
    return lo + uniformInt(hi - lo + 1);
}

double
Rng::uniformReal()
{
    return (next() >> 11) * 0x1.0p-53;
}

bool
Rng::bernoulli(double p)
{
    return uniformReal() < p;
}

double
Rng::normal()
{
    // Box-Muller; discard the second value for stream simplicity.
    double u1 = uniformReal();
    double u2 = uniformReal();
    if (u1 <= 0.0)
        u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double
Rng::logNormal(double mu, double sigma)
{
    return std::exp(mu + sigma * normal());
}

double
Rng::exponential(double rate)
{
    PIM_ASSERT(rate > 0.0, "exponential rate must be positive");
    double u = uniformReal();
    if (u >= 1.0)
        u = 1.0 - 0x1.0p-53;
    return -std::log(1.0 - u) / rate;
}

uint64_t
Rng::zipf(uint64_t n, double s)
{
    return ZipfSampler(n, s)(*this);
}

ZipfSampler::ZipfSampler(uint64_t n, double s) : n_(n)
{
    PIM_ASSERT(n > 0, "zipf needs a positive range");
    if (s == 1.0)
        s = 1.0 + 1e-9;
    oneMinusS_ = 1.0 - s;
    hN_ = (std::pow(static_cast<double>(n), oneMinusS_) - 1.0) / oneMinusS_;
}

uint64_t
ZipfSampler::operator()(Rng &rng) const
{
    if (n_ == 1)
        return 0;
    const double u = rng.uniformReal();
    const double x = std::pow(u * hN_ * oneMinusS_ + 1.0, 1.0 / oneMinusS_);
    uint64_t k = static_cast<uint64_t>(x);
    if (k >= n_)
        k = n_ - 1;
    return k;
}

Rng
Rng::stream(const std::string &name) const
{
    // FNV-1a 64 over the name, then one splitmix64 expansion per state
    // word keyed off the parent's *unadvanced* state: the child is a
    // pure function of (parent state, name), so the same (seed, name)
    // pair always yields the same stream regardless of what else was
    // drawn from sibling streams.
    uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : name) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    Rng child(0);
    bool nonzero = false;
    for (size_t i = 0; i < 4; ++i) {
        uint64_t x = s_[i] ^ h;
        child.s_[i] = splitmix64(x);
        nonzero = nonzero || child.s_[i] != 0;
    }
    if (!nonzero)
        child.s_[0] = h | 1; // xoshiro state must not be all zero
    return child;
}

} // namespace pim::util

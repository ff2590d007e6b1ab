/**
 * @file
 * Deterministic pseudo-random number generation for simulators.
 *
 * All stochastic components of the library draw from an explicitly
 * seeded Rng so that every experiment is exactly reproducible.
 */

#ifndef PCCS_COMMON_RNG_HH
#define PCCS_COMMON_RNG_HH

#include <cstdint>

namespace pccs {

/**
 * A small, fast, deterministic RNG (xoshiro256** core).
 *
 * Not cryptographic; intended for address-stream and scheduling jitter
 * generation inside the simulators.
 */
class Rng
{
  public:
    /** Construct with a seed; equal seeds yield identical streams. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull);

    /** @return next raw 64-bit value. */
    std::uint64_t next();

    /** @return uniform double in [0, 1). */
    double uniform();

    /** @return uniform double in [lo, hi). */
    double uniform(double lo, double hi);

    /** @return uniform integer in [0, bound) (bound > 0). */
    std::uint64_t below(std::uint64_t bound);

    /** @return true with probability p (clamped into [0, 1]). */
    bool chance(double p);

  private:
    static std::uint64_t rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t s_[4];
};

// The draws run once or more per generated request, from other
// translation units; defined here so those callers can inline them.

inline std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

inline double
Rng::uniform()
{
    return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

inline double
Rng::uniform(double lo, double hi)
{
    return lo + (hi - lo) * uniform();
}

inline std::uint64_t
Rng::below(std::uint64_t bound)
{
    return bound ? next() % bound : 0;
}

inline bool
Rng::chance(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace pccs

#endif // PCCS_COMMON_RNG_HH

/**
 * @file
 * Exact shortcut for a fixed-length bisection over a monotone
 * predicate.
 *
 * The loop
 *
 *     m = mid(lo, hi);
 *     repeat `steps` times: { if (upper(m)) hi = m; else lo = m;
 *                             m = mid(lo, hi); }
 *     return m;
 *
 * with `upper` monotone on (lo, hi) -- false below some double F, true
 * from F on -- only ever learns whether a midpoint is >= F, so its
 * result depends on F alone. solveBisection() finds F with a handful
 * of predicate calls from the caller's estimate, then returns the
 * midpoint of F and the double just below it where that is provably
 * where the loop ends (DESIGN.md section 16), and otherwise replays the
 * loop comparing each midpoint with F. Either way the result is
 * bit-identical to running the loop.
 */

#ifndef PCCS_COMMON_BISECTION_HH
#define PCCS_COMMON_BISECTION_HH

#include <bit>
#include <cmath>
#include <cstdint>

namespace pccs {

/** How a bisection step splits its bracket. */
enum class Midpoint
{
    /** 0.5 * (lo + hi). */
    Arithmetic,
    /** sqrt(lo * hi). */
    Geometric,
};

/** How solveBisection() reached its answer. */
struct BisectionTrace
{
    /** Calls of the predicate spent finding the flip point. */
    unsigned predicateCalls = 0;
    /** True when the loop was replayed instead of shortcut. */
    bool replayed = false;
};

namespace detail {

template <Midpoint M>
inline double
midpoint(double lo, double hi)
{
    if constexpr (M == Midpoint::Arithmetic)
        return 0.5 * (lo + hi);
    else
        return std::sqrt(lo * hi);
}

} // namespace detail

/**
 * The smallest double F in (lo, hi) at which `upper` holds, or hi when
 * it holds nowhere there; lo and hi themselves are never tested, just
 * as a bisection never tests its ends. Requires 0 <= lo < hi and
 * `upper` monotone on (lo, hi). Non-negative doubles order like their
 * bit patterns, so the search steps through those: it gallops outward
 * from `seed` (an estimate of F; only the call count depends on it),
 * doubling the step until the predicate changes, then halves the gap.
 */
template <class Pred>
double
flipPoint(double lo, double hi, double seed, Pred &&upper,
          unsigned *calls = nullptr)
{
    const std::uint64_t a = lo == 0.0 ? 0 : std::bit_cast<std::uint64_t>(lo);
    const std::uint64_t b = std::bit_cast<std::uint64_t>(hi);
    unsigned n = 0;
    const auto test = [&](std::uint64_t x) {
        ++n;
        return upper(std::bit_cast<double>(x));
    };

    // The search keeps `upper` false at f (or f == a) and true at t
    // (or t == b).
    std::uint64_t s = b;
    if (!(seed > lo))
        s = a + 1;
    else if (seed < hi)
        s = std::bit_cast<std::uint64_t>(seed);
    std::uint64_t f;
    std::uint64_t t;
    if (s == b || test(s)) {
        t = s;
        for (std::uint64_t step = 1;; step *= 2) {
            if (t - a <= step) {
                f = a;
                break;
            }
            if (!test(t - step)) {
                f = t - step;
                break;
            }
            t -= step;
        }
    } else {
        f = s;
        for (std::uint64_t step = 1;; step *= 2) {
            if (b - f <= step) {
                t = b;
                break;
            }
            if (test(f + step)) {
                t = f + step;
                break;
            }
            f += step;
        }
    }
    while (t - f > 1) {
        const std::uint64_t x = f + (t - f) / 2;
        if (test(x))
            t = x;
        else
            f = x;
    }
    if (calls)
        *calls += n;
    return std::bit_cast<double>(t);
}

/**
 * The final midpoint of the `steps`-step bisection of (lo, hi) that
 * moves hi down to every midpoint where `upper` holds and lo up to
 * every other one (the loop in the file comment), with the same bits.
 * `upper` must be monotone on (lo, hi), 0 <= lo < hi.
 *
 * The loop is shortcut where DESIGN.md section 16 proves it ends at
 * the midpoint of the flip pair: an arithmetic bracket from 0 of at
 * least 64 steps whose top is within 256 times the flip point, or a
 * geometric bracket of at least 66 steps inside [2^-500, 2^500], both
 * clear of underflow and overflow. Anything else is replayed.
 */
template <Midpoint M, class Pred>
double
solveBisection(double lo, double hi, int steps, double seed, Pred &&upper,
               BisectionTrace *trace = nullptr)
{
    unsigned calls = 0;
    const double flip = flipPoint(lo, hi, seed, upper, &calls);
    bool direct;
    if constexpr (M == Midpoint::Arithmetic)
        direct = lo == 0.0 && steps >= 64 && flip >= 0x1p-1021 &&
                 hi <= 0x1p1020 && hi <= 256.0 * flip;
    else
        direct = steps >= 66 && lo >= 0x1p-500 && hi <= 0x1p500;

    double m;
    if (direct) {
        const double below = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(flip) - 1);
        m = detail::midpoint<M>(below, flip);
    } else {
        // The loop itself, stopped at its fixed point (a midpoint equal
        // to an end repeats forever), with upper(m) read as m >= flip.
        m = detail::midpoint<M>(lo, hi);
        for (int i = 0; i < steps && m != lo && m != hi; ++i) {
            if (m >= flip)
                hi = m;
            else
                lo = m;
            m = detail::midpoint<M>(lo, hi);
        }
    }
    if (trace) {
        trace->predicateCalls += calls;
        trace->replayed = !direct;
    }
    return m;
}

} // namespace pccs

#endif // PCCS_COMMON_BISECTION_HH

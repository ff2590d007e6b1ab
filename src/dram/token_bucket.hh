/**
 * @file
 * Token-bucket pacing shared by the synthetic and trace-replay traffic
 * sources: a source may issue one line whenever the bucket holds a
 * line's worth of tokens.
 */

#ifndef PCCS_DRAM_TOKEN_BUCKET_HH
#define PCCS_DRAM_TOKEN_BUCKET_HH

#include <algorithm>

#include "common/logging.hh"
#include "common/units.hh"

namespace pccs::dram {

/**
 * A capped token bucket filled once per bus cycle and drained one line
 * at a time. Accrual is batched lazily (a source catches up on every
 * cycle since its last tick when it next ticks), and the batched result
 * is bit-identical to per-cycle accrual, so a tick may be skipped on
 * any cycle it provably could not issue.
 */
class TokenBucket
{
  public:
    /**
     * @param per_cycle tokens (bytes) added per bus cycle
     * @param line tokens one issued line costs; the cap is 8 lines
     */
    TokenBucket(double per_cycle, double line)
        : perCycle_(per_cycle), line_(line), cap_(8.0 * line)
    {
    }

    /**
     * Accrue tokens for every cycle through `now`: one capped addition
     * per elapsed cycle, never a closed form, so the float result is
     * the same however the cycles are batched. The cap is absorbing,
     * so the first addition that reaches it ends the loop; the clamp
     * sits off the chain of additions, which are the same ones in the
     * same order as min(t + perCycle, cap) per cycle.
     */
    void accrueThrough(Cycles now)
    {
        PCCS_ASSERT(now + 1 >= tickedThrough_,
                    "token bucket accrued backwards");
        double t = tokens_;
        if (t < cap_) {
            for (Cycles i = tickedThrough_; i <= now; ++i) {
                t += perCycle_;
                if (t >= cap_) {
                    t = cap_;
                    break;
                }
            }
        }
        tokens_ = t;
        tickedThrough_ = now + 1;
    }

    /** @return true when a line's worth of tokens is available. */
    bool holdsLine() const { return tokens_ >= line_; }

    /** Spend one line's worth of tokens (holdsLine() must be true). */
    void spendLine() { tokens_ -= line_; }

    /**
     * Recompute lineReadyAt() from the current level; call once at the
     * end of every tick, after the last spendLine().
     */
    void settle()
    {
        if (holdsLine()) {
            readyAt_ = 0;
            return;
        }
        // Cycles are counted from the last accrued cycle
        // (tickedThrough_ - 1, not the caller's clock: a source whose
        // ticks were skipped has a stale bucket).
        const Cycles last = tickedThrough_ - 1;
        // A bound still in the future proves this tick found no line,
        // so nothing was spent since it was computed and it still
        // holds (the reference loop ticks every cycle of the wait).
        if (readyAt_ > last)
            return;
        // A short wait is found exactly by replaying the very
        // additions accrueThrough() will make. The level stays below
        // line_ < cap_ until the loop exits, so the cap never applies.
        double t = tokens_;
        for (Cycles k = 1; k <= kExactCycles; ++k) {
            t += perCycle_;
            if (t >= line_) {
                readyAt_ = last + k;
                return;
            }
        }
        // A long wait is estimated in closed form, which can differ
        // from the sequential adds by a few ulps, so answer a couple
        // of cycles early; an early answer costs a no-op tick, a late
        // one would break equivalence.
        double est = (line_ - tokens_) / perCycle_;
        if (!(est < 1.0e15))
            est = 1.0e15; // demand so low it may as well be an epoch away
        const auto cycles = static_cast<Cycles>(est);
        readyAt_ = last + std::max<Cycles>(cycles > 3 ? cycles - 2 : 1,
                                           kExactCycles + 1);
    }

    /**
     * No tick before this cycle can find a line in the bucket (0 when
     * it holds one now). Valid from the last settle() until the next
     * accrual, whether or not ticks in between are skipped.
     */
    Cycles lineReadyAt() const { return readyAt_; }

  private:
    /** Waits up to this long are found exactly by settle(). */
    static constexpr Cycles kExactCycles = 32;

    double tokens_ = 0.0;
    double perCycle_;
    double line_;
    double cap_;
    /** Tokens are accrued for every cycle < tickedThrough_. */
    Cycles tickedThrough_ = 0;
    Cycles readyAt_ = 0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_TOKEN_BUCKET_HH

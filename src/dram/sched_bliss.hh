/**
 * @file
 * BLISS: Blacklisting memory scheduling (Subramanian et al.,
 * ICCD 2014 / TPDS 2016).
 *
 * Observation: full rank-ordered schedulers (ATLAS/TCM) pay for
 * per-source ranking hardware, yet most interference comes from
 * sources that stream many consecutive requests. BLISS keeps a single
 * bit per source: a source that gets `blissBlacklistThreshold`
 * consecutive services is blacklisted (deprioritized) until the
 * blacklist is wholesale cleared every `blissClearInterval` cycles.
 * Prioritization order:
 *   1) non-blacklisted sources,
 *   2) row-hit requests,
 *   3) oldest requests.
 */

#ifndef PCCS_DRAM_SCHED_BLISS_HH
#define PCCS_DRAM_SCHED_BLISS_HH

#include <cstdint>
#include <optional>
#include <tuple>

#include "dram/scheduler.hh"

namespace pccs::dram {

class BlissScheduler final : public KeyedScheduler<BlissScheduler>
{
  public:
    static constexpr bool kNeedsTickEvents = true;
    static constexpr bool kUsesSourceTier = true;

    explicit BlissScheduler(const SchedulerParams &params);

    const char *name() const override { return "BLISS"; }
    void tick(Cycles now) override;
    Cycles nextTickEvent() const override { return nextClear_; }
    void onService(const Request &req, Cycles now, unsigned bytes) override;
    /** (blacklisted, !row hit, arrival). */
    std::optional<std::tuple<bool, bool, Cycles>>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;

    /** @return true if a source is currently blacklisted (for tests). */
    bool blacklisted(unsigned source) const
    {
        return (blacklistMask_ >> source) & 1;
    }

  private:
    SchedulerParams params_;
    /** Source served by the most recent CAS; -1 before the first. */
    int lastSource_ = -1;
    /** Length of the current consecutive-service streak. */
    unsigned streak_ = 0;
    /** One interference bit per source. */
    std::uint64_t blacklistMask_ = 0;
    Cycles nextClear_;
};

/** Register BLISS with the policy registry. */
void registerBlissPolicy();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_BLISS_HH

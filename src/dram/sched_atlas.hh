/**
 * @file
 * ATLAS: Adaptive per-Thread Least-Attained-Service scheduling
 * (Kim et al., HPCA 2010; Table 2, row 3).
 *
 * Prioritization order:
 *   1) requests that have waited longer than the starvation threshold,
 *   2) requests from the source that has attained the least service,
 *   3) row-hit requests,
 *   4) oldest requests.
 * Attained service is accumulated per source during a long quantum and
 * exponentially smoothed across quanta.
 */

#ifndef PCCS_DRAM_SCHED_ATLAS_HH
#define PCCS_DRAM_SCHED_ATLAS_HH

#include <array>
#include <optional>
#include <tuple>

#include "dram/scheduler.hh"

namespace pccs::dram {

class AtlasScheduler final : public KeyedScheduler<AtlasScheduler>
{
  public:
    static constexpr bool kNeedsTickEvents = true;
    static constexpr bool kUsesSourceTier = true;

    explicit AtlasScheduler(const SchedulerParams &params);

    const char *name() const override { return "ATLAS"; }
    void tick(Cycles now) override;
    Cycles nextTickEvent() const override { return nextQuantum_; }
    void onService(const Request &req, Cycles now, unsigned bytes) override;
    /** (!starved, attained service, !row hit, arrival). */
    std::optional<std::tuple<bool, double, bool, Cycles>>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;

    /** @return smoothed attained service of a source (for tests). */
    double attainedService(unsigned source) const
    {
        return totalService_[source];
    }

  private:
    SchedulerParams params_;
    /** Service (bus cycles) attained in the current quantum. */
    std::array<double, maxSources> quantumService_{};
    /** Exponentially smoothed total attained service. */
    std::array<double, maxSources> totalService_{};
    Cycles nextQuantum_;
};

/** Register ATLAS with the policy registry. */
void registerAtlasPolicy();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_ATLAS_HH

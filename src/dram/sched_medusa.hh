/**
 * @file
 * MEDUSA: reserved-bank round-robin scheduling (after the MEDUSA
 * DRAM-partitioning scheme; reference design from the kvprathap/dram
 * MemScheduler).
 *
 * A configurable subset of each channel's banks is "reserved" for
 * latency-predictable service: requests to reserved banks are served
 * ahead of all others, and the reserved banks themselves take strict
 * round-robin turns (a bank that was just serviced is masked out until
 * every other reserved bank with a pending turn has been offered one;
 * when the turn mask is exhausted it resets to the full reserved set).
 * Non-reserved banks share the leftover slots under plain FR-FCFS.
 * Prioritization order:
 *   1) reserved-bank requests whose bank still holds its round-robin
 *      turn (lowest bank index first),
 *   2) reserved-bank requests out of turn (row hit, then age),
 *   3) non-reserved requests (row hit, then age).
 */

#ifndef PCCS_DRAM_SCHED_MEDUSA_HH
#define PCCS_DRAM_SCHED_MEDUSA_HH

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "dram/scheduler.hh"

namespace pccs::dram {

class MedusaScheduler final : public KeyedScheduler<MedusaScheduler>
{
  public:
    explicit MedusaScheduler(const SchedulerParams &params);

    const char *name() const override { return "MEDUSA"; }
    void onService(const Request &req, Cycles now, unsigned bytes) override;
    /** (tier, in-turn bank, !row hit, arrival). */
    std::optional<std::tuple<unsigned, unsigned, bool, Cycles>>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;

    /** @return reserved banks still holding a turn (for tests). */
    std::uint32_t turnMask(unsigned channel) const
    {
        return channel < rrMask_.size() ? rrMask_[channel]
                                        : params_.medusaReservedBankMask;
    }

  private:
    std::uint32_t &channelMask(unsigned channel);

    SchedulerParams params_;
    /** Per-channel mask of reserved banks that still hold a turn. */
    std::vector<std::uint32_t> rrMask_;
};

/** Register MEDUSA with the policy registry. */
void registerMedusaPolicy();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_MEDUSA_HH

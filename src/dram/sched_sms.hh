/**
 * @file
 * SMS: Staged Memory Scheduling (Ausavarungnirun et al., ISCA 2012;
 * Table 2, row 5).
 *
 * Stage 1 groups each source's requests into batches of accesses to the
 * same row (up to a cap). Stage 2 schedules whole batches: with
 * probability p it serves the source whose head batch is shortest
 * (favoring latency-sensitive, low-intensity sources) and with
 * probability (1-p) it picks batches round-robin (providing fairness to
 * bandwidth-heavy sources). A selected batch is served to completion.
 */

#ifndef PCCS_DRAM_SCHED_SMS_HH
#define PCCS_DRAM_SCHED_SMS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "dram/scheduler.hh"

namespace pccs::dram {

class SmsScheduler final : public Scheduler
{
  public:
    static constexpr bool kUsesSourceTier = true;

    explicit SmsScheduler(const SchedulerParams &params);

    const char *name() const override { return "SMS"; }
    /**
     * True while a reselection is due (no batch in flight, batch
     * exhausted, or its head no longer queued) or right after a
     * reselection whose owner could not issue while another entry
     * could.
     */
    bool pickPending(unsigned channel,
                     const RequestQueue &q) const override;
    int pick(unsigned channel, std::span<const QueueEntryView> entries,
             Cycles now) override;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) override;

  private:
    /** Per-channel batch-service state. */
    struct ChannelState
    {
        /** Source whose batch is being served; -1 when none. */
        int currentSource = -1;
        /** Row of the batch being served. */
        std::uint32_t batchRow = 0;
        /** Requests left in the current batch. */
        unsigned remaining = 0;
        /** Round-robin pointer for (1-p) selections. */
        unsigned rrNext = 0;
        /**
         * The last pick reselected, its owner could not issue, and
         * another entry could: the next pick serves the oldest
         * issuable entry.
         */
        bool declined = false;
    };

    ChannelState &channelState(unsigned channel);

    SchedulerParams params_;
    Rng rng_;
    std::vector<ChannelState> channels_;
};

/** Register SMS with the policy registry. */
void registerSmsPolicy();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_SMS_HH

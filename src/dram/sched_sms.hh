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

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "common/rng.hh"
#include "dram/scheduler.hh"

namespace pccs::dram {

class SmsScheduler final : public KeyedScheduler<SmsScheduler>
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
    /** Reselect the batch when one is due (the one RNG draw). */
    void prepare(unsigned channel, const RequestQueue &q,
                 Cycles now) override;
    /** Count a served batch request; record a reselection decline. */
    void commit(unsigned channel, const Request *chosen,
                bool any_issuable) override;
    /**
     * (!in batch, arrival); outside the batch not eligible on the
     * decision that reselected it.
     */
    std::optional<std::tuple<bool, Cycles>>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;

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
        /** The current decision reselected the batch. */
        bool reselected = false;
        /**
         * The last decision reselected, its owner could not issue,
         * and another entry could: the next one serves the oldest
         * issuable entry.
         */
        bool declined = false;

        bool inBatch(const Request &r) const
        {
            return static_cast<int>(r.source) == currentSource &&
                   r.loc.row == batchRow;
        }
    };

    /** Channel state; a channel never prepared reads as idle. */
    const ChannelState &state(unsigned channel) const;

    SchedulerParams params_;
    Rng rng_;
    std::vector<ChannelState> channels_;
};

/** Register SMS with the policy registry. */
void registerSmsPolicy();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_SMS_HH

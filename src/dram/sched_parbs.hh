/**
 * @file
 * PARBS: Parallelism-Aware Batch Scheduling (Mutlu & Moscibroda,
 * ISCA 2008).
 *
 * Requests are grouped into batches: when no marked requests remain
 * visible on a channel, the scheduler marks up to `parbsBatchCap` of
 * each source's oldest requests and ranks the sources shortest-job
 * first (fewest marked requests = highest rank), preserving each
 * source's bank-level parallelism by serving all of its marked
 * requests under one consistent ranking. Prioritization order:
 *   1) marked (current-batch) requests,
 *   2) higher-ranked source within the batch,
 *   3) row-hit requests,
 *   4) oldest requests.
 * Batching bounds unfairness: no source can be deprioritized for
 * longer than one batch.
 *
 * Marked-set representation: at formation each source's marked
 * requests are its oldest `take` queued ones — a prefix of its
 * arrival order whose ids (assigned at enqueue, monotone) all lie
 * below one per-source bound. Later enqueues get larger ids and stay
 * unmarked, and services only shrink the prefix, so membership is the
 * O(1) test `id < markedBelow[source]` for the batch's whole
 * lifetime — no id set to hash into, and the same test serves the
 * key and the fast path's FIFO-prefix walks.
 */

#ifndef PCCS_DRAM_SCHED_PARBS_HH
#define PCCS_DRAM_SCHED_PARBS_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "dram/scheduler.hh"

namespace pccs::dram {

class ParbsScheduler final : public KeyedScheduler<ParbsScheduler>
{
  public:
    static constexpr bool kUsesSourceTier = true;

    explicit ParbsScheduler(const SchedulerParams &params);

    const char *name() const override { return "PARBS"; }
    /** True while a batch is due: no marked request on a non-empty queue. */
    bool pickPending(unsigned channel,
                     const RequestQueue &q) const override;
    void onService(const Request &req, Cycles now, unsigned bytes) override;
    /** Form a batch when one is due. */
    void prepare(unsigned channel, const RequestQueue &q,
                 Cycles now) override;
    /** (!marked, rank if marked, !row hit, arrival). */
    std::optional<std::tuple<bool, unsigned, bool, Cycles>>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;

    /** @return marked requests outstanding on a channel (for tests). */
    std::size_t markedCount(unsigned channel) const
    {
        return state(channel).markedTotal;
    }

  private:
    /** Per-channel batch state (channels schedule independently). */
    struct ChannelState
    {
        /** Marked membership bound: id < markedBelow[source]. */
        std::array<std::uint64_t, maxSources> markedBelow{};
        /** Outstanding (unserviced) marked requests per source. */
        std::array<unsigned, maxSources> markedLeft{};
        /** Source rank for the current batch (lower = higher priority). */
        std::array<unsigned, maxSources> rank{};
        /** Sources with markedLeft > 0, one bit per source. */
        std::uint64_t markedSources = 0;
        /** Outstanding marked requests on the whole channel. */
        unsigned markedTotal = 0;
    };

    ChannelState &channelState(unsigned channel);
    /** Channel state; a channel never batched reads as empty. */
    const ChannelState &state(unsigned channel) const;

    SchedulerParams params_;
    std::vector<ChannelState> channels_;
};

/** Register PARBS with the policy registry. */
void registerParbsPolicy();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_PARBS_HH

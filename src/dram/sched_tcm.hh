/**
 * @file
 * TCM: Thread Cluster Memory scheduling (Kim et al., MICRO 2010;
 * Table 2, row 4).
 *
 * Every quantum, sources are partitioned by observed memory intensity
 * into a latency-sensitive cluster (low intensity, granted the highest
 * priority) and a bandwidth-sensitive cluster. Within the bandwidth
 * cluster, ranks are shuffled periodically so no source is persistently
 * deprioritized. Prioritization order:
 *   1) latency-sensitive (non-memory-intensive) sources,
 *   2) shuffled rank among bandwidth-sensitive sources,
 *   3) row-hit requests,
 *   4) oldest requests.
 */

#ifndef PCCS_DRAM_SCHED_TCM_HH
#define PCCS_DRAM_SCHED_TCM_HH

#include <array>
#include <optional>
#include <tuple>

#include "dram/scheduler.hh"

namespace pccs::dram {

class TcmScheduler final : public KeyedScheduler<TcmScheduler>
{
  public:
    static constexpr bool kNeedsTickEvents = true;
    static constexpr bool kUsesSourceTier = true;

    explicit TcmScheduler(const SchedulerParams &params);

    const char *name() const override { return "TCM"; }
    void tick(Cycles now) override;
    Cycles nextTickEvent() const override
    {
        return nextShuffle_ < nextQuantum_ ? nextShuffle_
                                           : nextQuantum_;
    }
    void onService(const Request &req, Cycles now, unsigned bytes) override;
    /** (!latency cluster, shuffled rank, !row hit, arrival). */
    std::optional<std::tuple<bool, unsigned, bool, Cycles>>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;

    /** @return true if a source is in the latency-sensitive cluster. */
    bool inLatencyCluster(unsigned source) const
    {
        return (latencyMask_ >> source) & 1;
    }

  private:
    void recluster();
    void shuffle();

    SchedulerParams params_;
    /** Service units (bursts) attained by each source this quantum. */
    std::array<double, maxSources> quantumService_{};
    /** Smoothed per-source intensity from the previous quanta. */
    std::array<double, maxSources> intensity_{};
    /**
     * Latency-cluster membership, one bit per source, recomputed each
     * quantum; everyone until the first quantum completes (no
     * information yet).
     */
    std::uint64_t latencyMask_ = ~std::uint64_t{0};
    /** Rank of each bandwidth-cluster source (lower = higher priority). */
    std::array<unsigned, maxSources> rank_{};
    Cycles nextQuantum_;
    Cycles nextShuffle_;
    unsigned shuffleOffset_ = 0;
};

/** Register TCM with the policy registry. */
void registerTcmPolicy();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_TCM_HH

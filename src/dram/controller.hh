/**
 * @file
 * The DRAM memory controller: per-channel request queues, bank state
 * machines, command issue (ACT/PRE/CAS) under DDR timing constraints,
 * and a pluggable scheduling policy (the per-policy evaluate-and-issue
 * path lives in dram/policy_controller.hh).
 */

#ifndef PCCS_DRAM_CONTROLLER_HH
#define PCCS_DRAM_CONTROLLER_HH

#include <algorithm>
#include <array>
#include <functional>
#include <iosfwd>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"
#include "dram/address_map.hh"
#include "dram/bank.hh"
#include "dram/config.hh"
#include "dram/port.hh"
#include "dram/request.hh"
#include "dram/request_queue.hh"
#include "dram/scheduler.hh"

namespace pccs::dram {

/** Aggregate controller statistics (reset-able between windows). */
struct ControllerStats
{
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    /** CAS commands served from an already-open row. */
    std::uint64_t rowHits = 0;
    /** CAS commands that required an ACT (and possibly a PRE) first. */
    std::uint64_t rowMisses = 0;
    /** Total data moved, bytes. */
    std::uint64_t bytesTransferred = 0;
    /** Sum over completed requests of (completion - arrival), cycles. */
    std::uint64_t totalLatency = 0;
    /** All-bank refresh operations performed. */
    std::uint64_t refreshes = 0;
    /** Completed requests, total and per source. */
    std::uint64_t completed = 0;
    std::array<std::uint64_t, Scheduler::maxSources> bytesPerSource{};
    std::array<std::uint64_t, Scheduler::maxSources> completedPerSource{};

    /** @return row-buffer hit rate in [0, 1]. */
    double rowBufferHitRate() const
    {
        const std::uint64_t total = rowHits + rowMisses;
        return total ? static_cast<double>(rowHits) /
                           static_cast<double>(total)
                     : 0.0;
    }

    /** @return average request latency in cycles. */
    double averageLatency() const
    {
        return completed ? static_cast<double>(totalLatency) /
                               static_cast<double>(completed)
                         : 0.0;
    }

    /**
     * Dump the statistics in gem5's stat-file style: one
     * `name value # description` line per statistic.
     */
    void print(std::ostream &os, const std::string &prefix = "mc") const;
};

/**
 * A multi-channel DRAM memory controller.
 *
 * Usage: enqueue() line-sized requests; call tick() once per bus cycle;
 * completed requests are reported through the completion callback.
 *
 * This base holds the state every policy shares (channels, queues,
 * in-flight CASes, refresh cadence, statistics). The evaluate-and-issue
 * path is PolicyController<P> (dram/policy_controller.hh), compiled
 * once per registered policy type P; construct a controller through
 * makeController(), which looks the policy up in the registry.
 */
class MemoryController : public MemoryPort
{
  public:
    using CompletionCallback = std::function<void(const Request &)>;

    ~MemoryController() override = default;
    MemoryController(const MemoryController &) = delete;
    MemoryController &operator=(const MemoryController &) = delete;

    /**
     * Enqueue a request. Its id is assigned only on acceptance, so a
     * rejected attempt changes no controller state.
     * @return false when the target channel's queue is full (the caller
     *         must retry later; this is the request-buffer backpressure)
     */
    bool enqueue(unsigned source, Addr addr, bool is_write,
                 Cycles now) override = 0;

    /** The queue of the channel `addr` decodes to. */
    const RequestQueue &requestQueue(Addr addr) const override
    {
        return queues_[mapper_.decode(addr).channel];
    }

    unsigned lineBytes() const override { return cfg_.lineBytes; }
    double cycleSeconds() const override
    {
        return cfg_.timing.cycleSeconds();
    }
    Addr addressSpan() const override
    {
        return mapper_.addressSpan();
    }

    /**
     * Advance the controller by one bus cycle.
     * @return true when the cycle was "active": a completion drained,
     *         a command (ACT/PRE/CAS) issued, or refresh made progress.
     *         A false return guarantees this cycle changed no
     *         controller, bank, or scheduler state, which is what lets
     *         the event-driven core skip ahead (see nextEventCycle()).
     */
    virtual bool tick(Cycles now) = 0;

    /**
     * Earliest cycle >= now + 1 at which tick() could do anything,
     * assuming no new requests arrive in between: the next inflight
     * completion, the next scheduler tick event, and per channel with
     * queued requests the next refresh deadline / refresh unblock /
     * bank, bus, or rank timing expiry. Conservative: waking earlier
     * than necessary is a no-op tick; the returned cycle is never
     * *later* than the first active cycle. kNoEvent when the
     * controller is fully idle.
     */
    virtual Cycles nextEventCycle(Cycles now) const = 0;

    /** The policy instance this controller schedules with. */
    virtual Scheduler &scheduler() = 0;

    /**
     * Enable/disable the event-driven evaluation: woken channels are
     * decided by the fast issue engine (fastPick()), and while a
     * channel's cached wake cycle lies in the future, tick() skips
     * evaluating it entirely. Every evaluation recomputes the wake:
     * the first cycle a command can legally issue (exact per bank and
     * candidate class, after an issue as after a decline) or, while
     * Scheduler::pickPending() holds, the next cycle. An enqueue only
     * tightens it by the newcomer's bank bound, unless pickPending()
     * holds after the push. Off by default so the reference mode
     * stays the plain every-cycle pick() specification; bit-exact
     * either way (skipped evaluations are provably no-ops — see the
     * audit notes in the sched_*.cc files).
     */
    void setLazyChannelScan(bool on);

    /**
     * Channel evaluations of the fast issue engine so far (lazy scan
     * only; never reset). Kept out of ControllerStats because it
     * differs by run mode by design, and the equivalence harnesses
     * compare that struct across modes.
     */
    std::uint64_t channelEvaluations() const { return channelEvaluations_; }

    /** ACT, PRE and CAS commands issued so far, in any run mode. */
    std::uint64_t issuedCommands() const { return issuedCommands_; }

    /** @return number of requests in queues plus in flight. */
    std::size_t pendingRequests() const;

    /** @return a copy of one channel's queued requests (debug/tests). */
    std::vector<Request> queueSnapshot(unsigned channel) const
    {
        const RequestQueue &q = queues_[channel];
        return {q.begin(), q.end()};
    }

    /** One channel's request queue (debug/tests). */
    const RequestQueue &channelQueue(unsigned channel) const
    {
        return queues_[channel];
    }

    /**
     * Banks of `channel` whose open row has queued requests, as a
     * bitmask (incrementally maintained by the queue's per-bank hit
     * lists; debug/tests).
     */
    std::uint32_t pendingRowHitMask(unsigned channel) const
    {
        return static_cast<std::uint32_t>(queues_[channel].hitMask());
    }

    /**
     * Times the scheduler-view scratch buffers grew after
     * construction; stays 0 because they are reserved to the queue
     * capacity up front (debug/tests).
     */
    std::size_t scratchReallocations() const { return scratchReallocs_; }

    /** Install the completion callback (may be empty). */
    void setCompletionCallback(CompletionCallback cb)
    {
        onComplete_ = std::move(cb);
    }

    const ControllerStats &stats() const { return stats_; }
    void resetStats() { stats_ = ControllerStats{}; }

    const DramConfig &config() const { return cfg_; }
    const AddressMapper &mapper() const { return mapper_; }

    /**
     * Effective bandwidth over an interval: bytes transferred during
     * `cycles` bus cycles as a fraction of theoretical peak, in [0, 1].
     */
    double effectiveBandwidthFraction(Cycles cycles) const;

  protected:
    explicit MemoryController(const DramConfig &cfg);

    /** Record an issued CAS (completion order == push order). */
    void pushInflight(const Request &req)
    {
        PCCS_ASSERT(inflightSize_ < inflight_.size(),
                    "in-flight ring overflow (%zu CASes)", inflightSize_);
        PCCS_ASSERT(inflightSize_ == 0 ||
                        inflight_[(inflightHead_ + inflightSize_ - 1) &
                                  inflightMask_]
                                .completion <= req.completion,
                    "CAS completions must be pushed in order");
        inflight_[(inflightHead_ + inflightSize_) & inflightMask_] = req;
        ++inflightSize_;
    }

    /** Completion cycle of the oldest in-flight CAS, or kNoEvent. */
    Cycles nextCompletion() const
    {
        return inflightSize_ ? inflight_[inflightHead_].completion
                             : kNoEvent;
    }

    /** @return true when at least one completion drained. */
    bool drainCompletions(Cycles now)
    {
        // Requests completing on the same cycle are delivered in issue
        // order; no observer depends on that order (delivery only
        // decrements outstanding counts and adds to sums).
        if (nextCompletion() > now)
            return false;
        do {
            const Request req = inflight_[inflightHead_];
            inflightHead_ = (inflightHead_ + 1) & inflightMask_;
            --inflightSize_;
            stats_.totalLatency += req.completion - req.arrival;
            ++stats_.completed;
            ++stats_.completedPerSource[req.source];
            if (onComplete_)
                onComplete_(req);
        } while (nextCompletion() <= now);
        return true;
    }

    /**
     * Refresh-drain cursor shared by handleRefresh and
     * channelNextEvent (the two bank scans this helper replaced with
     * one open-row-mask lookup): the lowest-indexed open bank of `ch`
     * — the bank whose PRE gates refresh progress — or -1 when every
     * bank is closed. When a bank is returned, *pre_at receives the
     * earliest cycle >= now its PRE is legal (== now when it can
     * issue immediately).
     */
    int firstReadyBank(unsigned ch, Cycles now, Cycles *pre_at) const
    {
        const ChannelTiming &timing = channels_[ch];
        const int b = timing.firstOpenBank();
        if (b >= 0 && pre_at)
            *pre_at = std::max(timing.bank(b).nextPrechargeAt(), now);
        return b;
    }

    DramConfig cfg_;
    AddressMapper mapper_;
    std::vector<ChannelTiming> channels_;
    std::vector<RequestQueue> queues_;
    ControllerStats stats_;
    CompletionCallback onComplete_;
    std::uint64_t nextId_ = 1;
    std::vector<QueueEntryView> scratchEntries_;
    /** Queue slot ids parallel to scratchEntries_ (O(1) dequeue). */
    std::vector<int> scratchSlots_;
    /** Scratch regrowths after construction (must stay 0). */
    std::size_t scratchReallocs_ = 0;
    /** Per-channel next refresh deadline (tREFI cadence). */
    std::vector<Cycles> nextRefresh_;
    /** Per-channel cycle until which a refresh blocks the channel. */
    std::vector<Cycles> refreshUntil_;
    /**
     * Lazy-scan cache: channel ch cannot issue before channelWake_[ch]
     * (valid only while lazyChannels_; 0 = evaluate). Maintained by
     * tick(), tightened by enqueue(), reset by setLazyChannelScan().
     */
    std::vector<Cycles> channelWake_;
    bool lazyChannels_ = false;
    std::uint64_t channelEvaluations_ = 0;
    std::uint64_t issuedCommands_ = 0;

  private:
    /**
     * Issued CASes awaiting completion, oldest first, in a ring of
     * fixed power-of-two size. Every CAS, read or write, completes a
     * fixed tCL + tBURST after it issues, and commands issue in cycle
     * order, so requests arrive in non-decreasing completion order and
     * a FIFO drains them on time. A tick drains every completion due
     * before it can issue, and a channel issues at most one command
     * per cycle, so at most channels * (tCL + tBURST) CASes are ever
     * in flight: the ring is sized to that bound at construction and
     * never grows.
     */
    std::vector<Request> inflight_;
    std::size_t inflightMask_ = 0;
    std::size_t inflightHead_ = 0;
    std::size_t inflightSize_ = 0;
};

/**
 * Build a controller running the registered policy `policy` (name or
 * alias, case-insensitive; unknown names are a fatal user error).
 */
std::unique_ptr<MemoryController>
makeController(const DramConfig &cfg, std::string_view policy,
               const SchedulerParams &params = {});

} // namespace pccs::dram

#endif // PCCS_DRAM_CONTROLLER_HH

/**
 * @file
 * Synthetic per-core memory traffic generation.
 *
 * Each generator models one core running a roofline-toolkit style
 * streaming kernel with a configurable standalone bandwidth demand:
 * a token bucket paces line-sized requests at the demanded rate, a
 * bounded number of outstanding requests models the core's memory-level
 * parallelism, and the address stream mixes sequential row-local
 * accesses with random jumps according to a locality knob.
 */

#ifndef PCCS_DRAM_TRAFFIC_HH
#define PCCS_DRAM_TRAFFIC_HH

#include <memory>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/units.hh"
#include "dram/port.hh"
#include "dram/request.hh"
#include "dram/scheduler.hh"
#include "dram/token_bucket.hh"

namespace pccs::dram {

/** Configuration of one synthetic core. */
struct TrafficParams
{
    /** Source id (unique per generator, < Scheduler::maxSources). */
    unsigned source = 0;
    /** Standalone bandwidth demand in GB/s. */
    GBps demand = 10.0;
    /** Probability the next line continues the current sequential run. */
    double rowLocality = 0.97;
    /**
     * Maximum outstanding requests (memory-level parallelism). With
     * ~70-cycle loaded latencies, sustaining the full 102.4 GB/s of
     * the Table 1 system needs roughly 64 outstanding lines.
     */
    unsigned mlp = 64;
    /** Fraction of requests that are writes. */
    double writeFraction = 0.0;
    /** RNG seed for the address stream. */
    std::uint64_t seed = 1;
};

/**
 * A paced, closed-loop traffic generator bound to a memory port
 * (a single controller or a multi-controller router).
 */
class CoreTrafficGenerator
{
  public:
    CoreTrafficGenerator(const TrafficParams &params, MemoryPort &port);

    /**
     * Advance through bus cycle `now`: accrue tokens for every cycle
     * since the last call (token updates are identical capped
     * single-cycle additions whether performed eagerly or in a batch,
     * so reference and event-driven runs see bit-identical buckets),
     * then issue eligible requests.
     * @return true when at least one line was issued.
     */
    bool tick(Cycles now);

    /**
     * True when tick(now) provably could not issue, so the event-driven
     * loops may skip it: the source is at its MLP limit, the request it
     * holds targets a still-full request buffer, or its bucket cannot
     * hold a line yet. A skipped tick only defers token accrual, which
     * batches bit-identically. Must be asked at the source's own turn
     * in the cycle (after the controllers ticked and after the sources
     * ahead of it in the rotation), as tick() would run there.
     */
    bool idleAt(Cycles now) const
    {
        return outstanding_ >= params_.mlp ||
               now < bucket_.lineReadyAt() ||
               (blockedOn_ != nullptr && blockedOn_->full());
    }

    /**
     * Earliest cycle >= now + 1 at which tick() could issue a request,
     * given no completions arrive in between. kNoEvent when issue is
     * gated on external progress (MLP limit or queue backpressure),
     * which only clears through controller activity — itself a wake.
     * Conservative: may wake a couple of cycles early, never late.
     */
    Cycles nextIssueEvent(Cycles now) const;

    /** Notify that one of this source's requests completed. */
    void onComplete(const Request &req);

    /** @return lines completed since the last resetMeasurement(). */
    std::uint64_t completedLines() const { return completedLines_; }

    /** @return lines issued since the last resetMeasurement(). */
    std::uint64_t issuedLines() const { return issuedLines_; }

    /**
     * @return enqueue attempts the request buffer rejected since the
     * last resetMeasurement(). Differs between run modes: the
     * reference loop retries a blocked request every cycle, the
     * event-driven loops only once its buffer has room.
     */
    std::uint64_t rejectedEnqueues() const { return rejectedEnqueues_; }

    /** Zero the measurement counters (start of a window). */
    void resetMeasurement();

    /** @return the source id. */
    unsigned source() const { return params_.source; }

    /** @return the configured standalone demand in GB/s. */
    GBps demand() const { return params_.demand; }

    /** @return currently outstanding requests. */
    unsigned outstanding() const { return outstanding_; }

    /** Achieved bandwidth over a window of bus cycles, GB/s. */
    GBps achievedBandwidth(Cycles window_cycles) const;

  private:
    Addr nextAddress();

    TrafficParams params_;
    MemoryPort &port_;
    Rng rng_;
    TokenBucket bucket_;
    unsigned outstanding_ = 0;
    std::uint64_t completedLines_ = 0;
    std::uint64_t issuedLines_ = 0;
    std::uint64_t rejectedEnqueues_ = 0;
    /** Linear line cursor within this source's address region. */
    std::uint64_t cursor_ = 0;
    Addr regionBase_;
    std::uint64_t regionLines_;
    /** Address generated but not yet accepted by the controller. */
    Addr pendingAddr_ = 0;
    bool pendingWrite_ = false;
    /**
     * The request buffer that rejected the pending address; non-null
     * exactly while a request is pending.
     */
    const RequestQueue *blockedOn_ = nullptr;
};

// The per-request path (tick, its address draw, the completion) runs
// from DramSystem in another translation unit; defined here so it can
// inline them.

inline Addr
CoreTrafficGenerator::nextAddress()
{
    if (!rng_.chance(params_.rowLocality)) {
        // Random jump within the private region (a new row almost
        // surely, modeling poor-locality strides).
        cursor_ = rng_.below(regionLines_);
    }
    const Addr addr = regionBase_ + cursor_ * port_.lineBytes();
    // Wrap on increment: the cursor stays in [0, regionLines_) instead
    // of growing without bound and being reduced at every use.
    if (++cursor_ >= regionLines_)
        cursor_ = 0;
    return addr;
}

inline bool
CoreTrafficGenerator::tick(Cycles now)
{
    bucket_.accrueThrough(now);
    bool issued = false;
    while (bucket_.holdsLine() && outstanding_ < params_.mlp) {
        if (!blockedOn_) {
            pendingAddr_ = nextAddress();
            pendingWrite_ = rng_.chance(params_.writeFraction);
        }
        if (!port_.enqueue(params_.source, pendingAddr_, pendingWrite_,
                           now)) {
            // Request buffer full: hold the tokens *and the address*
            // and retry once the buffer has room. Advancing the stream
            // on failed attempts would shred its row locality under
            // backpressure.
            if (!blockedOn_) // same address, same queue as last time
                blockedOn_ = &port_.requestQueue(pendingAddr_);
            ++rejectedEnqueues_;
            break;
        }
        blockedOn_ = nullptr;
        bucket_.spendLine();
        ++outstanding_;
        ++issuedLines_;
        issued = true;
    }
    bucket_.settle();
    return issued;
}

inline void
CoreTrafficGenerator::onComplete(const Request &req)
{
    PCCS_ASSERT(req.source == params_.source,
                "completion for source %u routed to source %u",
                req.source, params_.source);
    PCCS_ASSERT(outstanding_ > 0, "completion with no outstanding request");
    --outstanding_;
    ++completedLines_;
}

/**
 * Tick every source in `sources` (synthetic or trace replay) for cycle
 * `now`, starting at index `first` and wrapping. The caller passes
 * first == now % size, carried from cycle to cycle rather than divided
 * (DramSystem). The rotation keeps a full request buffer from handing
 * every freed slot to the lowest-indexed source (an arbitration bias
 * no real interconnect has); its offset is a pure function of `now`,
 * so skipping quiet cycles cannot perturb it. With `skip_idle`,
 * sources whose idleAt() holds at their turn are not ticked (the
 * event-driven loops); the reference loops tick every source every
 * cycle.
 * @return true when any source issued a line.
 */
template <class Source>
bool
tickRotated(const std::vector<std::unique_ptr<Source>> &sources,
            std::size_t first, Cycles now, bool skip_idle)
{
    const std::size_t n = sources.size();
    bool issued = false;
    std::size_t k = first;
    for (std::size_t i = 0; i < n; ++i) {
        Source &src = *sources[k];
        if (++k == n)
            k = 0;
        if (skip_idle && src.idleAt(now))
            continue;
        issued |= src.tick(now);
    }
    return issued;
}

} // namespace pccs::dram

#endif // PCCS_DRAM_TRAFFIC_HH

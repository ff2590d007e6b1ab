/**
 * @file
 * Live observability of the prediction service: per-endpoint request
 * and error counters, latency histograms with percentile estimates,
 * and the predict batcher's batch-size distribution.
 *
 * Recording is lock-free and sharded: the hot path is a handful of
 * relaxed atomic increments on a cache-line-padded per-shard block
 * (shards are assigned per recording thread, so server shards never
 * contend), and the `stats` endpoint aggregates the shards into one
 * snapshot. Only requests whose op is not one of the fixed protocol
 * endpoints (a client typo'd op name, say) fall back to a per-shard
 * mutex-guarded overflow map — by definition a cold path.
 *
 * Latencies land in geometric (powers-of-two microseconds) buckets,
 * so recording is O(1) and percentiles are estimated by linear
 * interpolation inside the bucket that crosses the requested rank —
 * the standard monitoring-histogram trade: bounded memory, ~2x worst
 * case relative error, exact counts.
 *
 * Batch sizes get the same treatment: a log-bucket histogram always,
 * plus (only when debug stats are enabled — PCCS_SERVE_DEBUG_STATS=1
 * or `enableDebugSizes()`) the raw per-size map, which is unbounded
 * in cardinality and therefore kept out of every production `stats`
 * response.
 */

#ifndef PCCS_SERVE_METRICS_HH
#define PCCS_SERVE_METRICS_HH

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "serve/json.hh"

namespace pccs::serve {

/** Fixed-bucket log-scale histogram of microsecond latencies
 *  (plain, single-threaded; used for aggregation snapshots). */
class LatencyHistogram
{
  public:
    void record(double micros);

    std::uint64_t count() const { return count_; }

    /** Mean recorded latency, microseconds (0 when empty). */
    double meanMicros() const
    {
        return count_ > 0 ? sumMicros_ / static_cast<double>(count_)
                          : 0.0;
    }

    /** Largest recorded latency, microseconds. */
    double maxMicros() const { return maxMicros_; }

    /**
     * Estimated p-th percentile (p in [0, 100]), microseconds.
     * Interpolated within the crossing bucket; 0 when empty.
     */
    double percentileMicros(double p) const;

    /** Buckets cover [2^i, 2^(i+1)) microseconds. */
    static constexpr std::size_t kBuckets = 40;

    /** Add one bucket's worth of samples (shard aggregation). */
    void addBucket(std::size_t bucket, std::uint64_t n);

    /** Fold in a shard's running sum and max (shard aggregation). */
    void addSummary(double sum_micros, double max_micros);

    /** Fold another histogram into this one. */
    void merge(const LatencyHistogram &other);

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    double sumMicros_ = 0.0;
    double maxMicros_ = 0.0;
};

/** The fixed protocol endpoints, indexable for lock-free counters. */
enum class EndpointOp : unsigned {
    Predict,
    Corun,
    Place,
    Explore,
    Reload,
    Stats,
    Health,
    Shutdown,
    Schedule,
    Complete,
    SchedStats,
    /** Frames with no usable op (parse errors, oversized lines). */
    Frame,
    kCount
};

/** @return the fixed slot for `op`, or kCount for unknown names. */
EndpointOp endpointOpFromName(std::string_view op);

/** @return the wire name of a fixed endpoint slot. */
std::string_view endpointOpName(EndpointOp op);

/** Counters of one protocol endpoint (aggregation snapshot). */
struct EndpointCounters
{
    std::uint64_t requests = 0;
    std::uint64_t errors = 0;
    LatencyHistogram latency;
};

/**
 * Thread-safe metrics registry of the service. One instance per
 * server; the `stats` endpoint renders it as JSON.
 */
class Metrics
{
  public:
    Metrics();

    /** Record one handled request (ok or error) and its latency;
     *  lock-free for the fixed endpoints. */
    void recordRequest(EndpointOp op, bool ok, double micros);

    /** Same, by op name — unknown names take the overflow map. */
    void recordRequest(std::string_view op, bool ok, double micros);

    /** Record one coalesced predict evaluation pass of `size`. */
    void recordBatch(std::size_t size);

    /** Total requests across all endpoints. */
    std::uint64_t totalRequests() const;

    /** Seconds since the metrics (i.e., the server) started. */
    double uptimeSeconds() const;

    /** Also collect (and report) the raw per-size batch map. Off by
     *  default; PCCS_SERVE_DEBUG_STATS=1 enables it at construction. */
    void enableDebugSizes(bool on) { debugSizes_.store(on); }
    bool debugSizesEnabled() const { return debugSizes_.load(); }

    /** Render everything as the `stats` result object. */
    Json toJson() const;

    /** Recording shards; fixed, independent of server shard count. */
    static constexpr std::size_t kShards = 16;

    /**
     * Cap on distinct unknown-op names tracked per shard. Beyond it,
     * new names fold into one "other" bucket, so a client flooding
     * random op names cannot grow the overflow map unboundedly.
     */
    static constexpr std::size_t kMaxOverflowOps = 16;

  private:
    /** One endpoint's lock-free accumulator. */
    struct AtomicCounters
    {
        std::atomic<std::uint64_t> requests{0};
        std::atomic<std::uint64_t> errors{0};
        std::array<std::atomic<std::uint64_t>,
                   LatencyHistogram::kBuckets>
            latencyBuckets{};
        std::atomic<double> latencySum{0.0};
        std::atomic<double> latencyMax{0.0};
    };

    /** Batch-size log-bucket accumulator: [2^k, 2^(k+1)) passes. */
    static constexpr std::size_t kBatchBuckets = 32;

    struct alignas(64) Shard
    {
        std::array<AtomicCounters,
                   static_cast<std::size_t>(EndpointOp::kCount)>
            ops;
        std::array<std::atomic<std::uint64_t>, kBatchBuckets>
            batchBuckets{};
        std::atomic<std::uint64_t> batchPasses{0};
        std::atomic<std::uint64_t> batchRequests{0};
        std::atomic<std::uint64_t> batchLargest{0};

        /** Cold paths, each guarded per shard. */
        mutable std::mutex overflowMutex;
        std::map<std::string, EndpointCounters, std::less<>>
            overflow;
        mutable std::mutex sizesMutex;
        std::map<std::size_t, std::uint64_t> sizes;
    };

    Shard &localShard();

    std::array<Shard, kShards> shards_;
    std::atomic<bool> debugSizes_{false};
    std::chrono::steady_clock::time_point start_;
};

} // namespace pccs::serve

#endif // PCCS_SERVE_METRICS_HH

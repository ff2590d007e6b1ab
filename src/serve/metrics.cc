#include "metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace pccs::serve {

namespace {

/** Index of the bucket covering `micros`: floor(log2), clamped. */
std::size_t
bucketIndex(double micros, std::size_t buckets)
{
    if (!(micros >= 1.0))
        return 0;
    const int e = std::ilogb(micros);
    return std::min<std::size_t>(static_cast<std::size_t>(e),
                                 buckets - 1);
}

/** Relaxed-atomic running maximum of a double. */
void
atomicMax(std::atomic<double> &slot, double v)
{
    double seen = slot.load(std::memory_order_relaxed);
    while (v > seen &&
           !slot.compare_exchange_weak(seen, v,
                                       std::memory_order_relaxed)) {
    }
}

} // namespace

void
LatencyHistogram::record(double micros)
{
    if (!(micros >= 0.0) || !std::isfinite(micros))
        micros = 0.0;
    ++buckets_[bucketIndex(micros, kBuckets)];
    ++count_;
    sumMicros_ += micros;
    maxMicros_ = std::max(maxMicros_, micros);
}

void
LatencyHistogram::addBucket(std::size_t bucket, std::uint64_t n)
{
    if (bucket < kBuckets)
        buckets_[bucket] += n;
    count_ += n;
}

void
LatencyHistogram::addSummary(double sum_micros, double max_micros)
{
    sumMicros_ += sum_micros;
    maxMicros_ = std::max(maxMicros_, max_micros);
}

void
LatencyHistogram::merge(const LatencyHistogram &other)
{
    for (std::size_t i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sumMicros_ += other.sumMicros_;
    maxMicros_ = std::max(maxMicros_, other.maxMicros_);
}

double
LatencyHistogram::percentileMicros(double p) const
{
    if (count_ == 0)
        return 0.0;
    p = std::clamp(p, 0.0, 100.0);
    // Rank of the requested percentile (1-based, nearest-rank).
    const double rank =
        std::max(1.0, std::ceil(p / 100.0 *
                                static_cast<double>(count_)));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
        if (buckets_[i] == 0)
            continue;
        const double before = static_cast<double>(seen);
        seen += buckets_[i];
        if (static_cast<double>(seen) < rank)
            continue;
        // Interpolate within [2^i, 2^(i+1)) by the rank's position
        // among this bucket's samples.
        const double lo = i == 0 ? 0.0 : std::ldexp(1.0, static_cast<int>(i));
        const double hi = std::ldexp(1.0, static_cast<int>(i) + 1);
        const double frac =
            (rank - before) / static_cast<double>(buckets_[i]);
        return std::min(lo + (hi - lo) * frac, maxMicros_);
    }
    return maxMicros_;
}

EndpointOp
endpointOpFromName(std::string_view op)
{
    switch (op.empty() ? '\0' : op.front()) {
      case 'p':
        if (op == "predict")
            return EndpointOp::Predict;
        if (op == "place")
            return EndpointOp::Place;
        break;
      case 'c':
        if (op == "corun")
            return EndpointOp::Corun;
        if (op == "complete")
            return EndpointOp::Complete;
        break;
      case 'e':
        if (op == "explore")
            return EndpointOp::Explore;
        break;
      case 'r':
        if (op == "reload")
            return EndpointOp::Reload;
        break;
      case 's':
        if (op == "stats")
            return EndpointOp::Stats;
        if (op == "shutdown")
            return EndpointOp::Shutdown;
        if (op == "schedule")
            return EndpointOp::Schedule;
        if (op == "sched_stats")
            return EndpointOp::SchedStats;
        break;
      case 'h':
        if (op == "health")
            return EndpointOp::Health;
        break;
      case '_':
        if (op == "_frame")
            return EndpointOp::Frame;
        break;
      default:
        break;
    }
    return EndpointOp::kCount;
}

std::string_view
endpointOpName(EndpointOp op)
{
    switch (op) {
      case EndpointOp::Predict:
        return "predict";
      case EndpointOp::Corun:
        return "corun";
      case EndpointOp::Place:
        return "place";
      case EndpointOp::Explore:
        return "explore";
      case EndpointOp::Reload:
        return "reload";
      case EndpointOp::Stats:
        return "stats";
      case EndpointOp::Health:
        return "health";
      case EndpointOp::Shutdown:
        return "shutdown";
      case EndpointOp::Schedule:
        return "schedule";
      case EndpointOp::Complete:
        return "complete";
      case EndpointOp::SchedStats:
        return "sched_stats";
      case EndpointOp::Frame:
      case EndpointOp::kCount:
        break;
    }
    return "_frame";
}

Metrics::Metrics() : start_(std::chrono::steady_clock::now())
{
    const char *env = std::getenv("PCCS_SERVE_DEBUG_STATS");
    if (env != nullptr && env[0] != '\0' && env[0] != '0')
        debugSizes_.store(true);
}

Metrics::Shard &
Metrics::localShard()
{
    // Each recording thread sticks to one shard for its lifetime;
    // round-robin assignment spreads server shards across blocks.
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t mine =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return shards_[mine];
}

void
Metrics::recordRequest(EndpointOp op, bool ok, double micros)
{
    if (op == EndpointOp::kCount)
        op = EndpointOp::Frame;
    if (!(micros >= 0.0) || !std::isfinite(micros))
        micros = 0.0;
    Shard &shard = localShard();
    AtomicCounters &c = shard.ops[static_cast<std::size_t>(op)];
    c.requests.fetch_add(1, std::memory_order_relaxed);
    if (!ok)
        c.errors.fetch_add(1, std::memory_order_relaxed);
    c.latencyBuckets[bucketIndex(micros,
                                 LatencyHistogram::kBuckets)]
        .fetch_add(1, std::memory_order_relaxed);
    c.latencySum.fetch_add(micros, std::memory_order_relaxed);
    atomicMax(c.latencyMax, micros);
}

void
Metrics::recordRequest(std::string_view op, bool ok, double micros)
{
    const EndpointOp fixed = endpointOpFromName(op);
    if (fixed != EndpointOp::kCount) {
        recordRequest(fixed, ok, micros);
        return;
    }
    // Unknown op name (client typo): the cold mutex-guarded map,
    // bounded at kMaxOverflowOps distinct names per shard — names
    // beyond the cap share the "other" bucket, so a flood of random
    // ops costs one map entry, not one per name.
    Shard &shard = localShard();
    std::lock_guard lock(shard.overflowMutex);
    auto it = shard.overflow.find(op);
    if (it == shard.overflow.end()) {
        if (shard.overflow.size() >= kMaxOverflowOps)
            it = shard.overflow
                     .emplace("other", EndpointCounters{})
                     .first;
        else
            it = shard.overflow
                     .emplace(std::string(op), EndpointCounters{})
                     .first;
    }
    EndpointCounters &c = it->second;
    ++c.requests;
    if (!ok)
        ++c.errors;
    c.latency.record(micros);
}

void
Metrics::recordBatch(std::size_t size)
{
    if (size == 0)
        return;
    Shard &shard = localShard();
    std::size_t bucket = 0;
    while (bucket + 1 < kBatchBuckets &&
           (std::size_t{2} << bucket) <= size)
        ++bucket;
    shard.batchBuckets[bucket].fetch_add(1,
                                         std::memory_order_relaxed);
    shard.batchPasses.fetch_add(1, std::memory_order_relaxed);
    shard.batchRequests.fetch_add(size, std::memory_order_relaxed);
    std::uint64_t seen =
        shard.batchLargest.load(std::memory_order_relaxed);
    while (size > seen &&
           !shard.batchLargest.compare_exchange_weak(
               seen, size, std::memory_order_relaxed)) {
    }
    if (debugSizes_.load(std::memory_order_relaxed)) {
        std::lock_guard lock(shard.sizesMutex);
        ++shard.sizes[size];
    }
}

std::uint64_t
Metrics::totalRequests() const
{
    std::uint64_t total = 0;
    for (const Shard &shard : shards_) {
        for (const AtomicCounters &c : shard.ops)
            total += c.requests.load(std::memory_order_relaxed);
        std::lock_guard lock(shard.overflowMutex);
        for (const auto &[op, c] : shard.overflow)
            total += c.requests;
    }
    return total;
}

double
Metrics::uptimeSeconds() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start_)
        .count();
}

Json
Metrics::toJson() const
{
    // Aggregate the shards into plain snapshots first (insertion
    // into the ordered map keeps the endpoint listing alphabetical,
    // matching the pre-sharding wire shape).
    std::map<std::string, EndpointCounters> endpointTotals;
    for (const Shard &shard : shards_) {
        for (std::size_t op = 0;
             op < static_cast<std::size_t>(EndpointOp::kCount);
             ++op) {
            const AtomicCounters &c = shard.ops[op];
            const std::uint64_t requests =
                c.requests.load(std::memory_order_relaxed);
            if (requests == 0)
                continue;
            EndpointCounters &total = endpointTotals[std::string(
                endpointOpName(static_cast<EndpointOp>(op)))];
            total.requests += requests;
            total.errors +=
                c.errors.load(std::memory_order_relaxed);
            for (std::size_t b = 0;
                 b < LatencyHistogram::kBuckets; ++b) {
                const std::uint64_t n =
                    c.latencyBuckets[b].load(
                        std::memory_order_relaxed);
                if (n > 0)
                    total.latency.addBucket(b, n);
            }
            total.latency.addSummary(
                c.latencySum.load(std::memory_order_relaxed),
                c.latencyMax.load(std::memory_order_relaxed));
        }
        std::lock_guard lock(shard.overflowMutex);
        for (const auto &[op, c] : shard.overflow) {
            EndpointCounters &total = endpointTotals[op];
            total.requests += c.requests;
            total.errors += c.errors;
            total.latency.merge(c.latency);
        }
    }

    Json endpoints = Json::object();
    for (const auto &[op, c] : endpointTotals) {
        Json latency = Json::object();
        latency.set("meanUs", c.latency.meanMicros());
        latency.set("p50Us", c.latency.percentileMicros(50.0));
        latency.set("p95Us", c.latency.percentileMicros(95.0));
        latency.set("p99Us", c.latency.percentileMicros(99.0));
        latency.set("maxUs", c.latency.maxMicros());

        Json entry = Json::object();
        entry.set("requests", c.requests);
        entry.set("errors", c.errors);
        entry.set("latency", std::move(latency));
        endpoints.set(op, std::move(entry));
    }

    // Batch-size distribution: powers-of-two buckets always; the raw
    // per-size map only when debug stats are on (93 distinct sizes in
    // a production run would bloat every stats response for data the
    // histogram already carries).
    std::uint64_t passes = 0, batched = 0, largest = 0;
    std::array<std::uint64_t, kBatchBuckets> histogram{};
    std::map<std::size_t, std::uint64_t> rawSizes;
    for (const Shard &shard : shards_) {
        passes += shard.batchPasses.load(std::memory_order_relaxed);
        batched +=
            shard.batchRequests.load(std::memory_order_relaxed);
        largest = std::max(
            largest,
            shard.batchLargest.load(std::memory_order_relaxed));
        for (std::size_t b = 0; b < kBatchBuckets; ++b)
            histogram[b] +=
                shard.batchBuckets[b].load(
                    std::memory_order_relaxed);
        if (debugSizes_.load(std::memory_order_relaxed)) {
            std::lock_guard lock(shard.sizesMutex);
            for (const auto &[size, n] : shard.sizes)
                rawSizes[size] += n;
        }
    }
    Json buckets = Json::object();
    for (std::size_t b = 0; b < kBatchBuckets; ++b) {
        if (histogram[b] == 0)
            continue;
        const std::size_t lo = std::size_t{1} << b;
        const std::size_t hi = (std::size_t{2} << b) - 1;
        const std::string label =
            lo == hi ? std::to_string(lo)
                     : std::to_string(lo) + "-" + std::to_string(hi);
        buckets.set(label, histogram[b]);
    }
    Json batches = Json::object();
    batches.set("passes", passes);
    batches.set("requests", batched);
    batches.set("largest", largest);
    batches.set("meanSize",
                passes > 0 ? static_cast<double>(batched) /
                                 static_cast<double>(passes)
                           : 0.0);
    batches.set("histogram", std::move(buckets));
    if (debugSizes_.load(std::memory_order_relaxed)) {
        Json sizes = Json::object();
        for (const auto &[size, n] : rawSizes)
            sizes.set(std::to_string(size), n);
        batches.set("sizes", std::move(sizes));
    }

    Json out = Json::object();
    out.set("uptimeSeconds", uptimeSeconds());
    out.set("endpoints", std::move(endpoints));
    out.set("batches", std::move(batches));
    return out;
}

} // namespace pccs::serve

#include "controller.hh"

#include <algorithm>
#include <bit>
#include <ostream>

#include "common/logging.hh"

namespace pccs::dram {

MemoryController::MemoryController(const DramConfig &cfg)
    : cfg_(cfg), mapper_(cfg)
{
    PCCS_ASSERT(cfg_.banksPerChannel <= 32,
                "row-hit preservation bitmask supports <= 32 banks");
    channels_.reserve(cfg_.channels);
    queues_.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        channels_.emplace_back(cfg_.banksPerChannel, cfg_.timing);
        queues_.emplace_back(cfg_.queuePerChannel(),
                             cfg_.banksPerChannel);
    }
    // The gather path must never reallocate mid-run: a queue holds at
    // most queuePerChannel() requests, so one up-front reservation
    // covers every evaluation (scratchReallocations() stays 0).
    scratchEntries_.reserve(cfg_.queuePerChannel());
    scratchSlots_.reserve(cfg_.queuePerChannel());
    nextRefresh_.assign(cfg_.channels, cfg_.timing.tREFI);
    refreshUntil_.assign(cfg_.channels, 0);
    channelWake_.assign(cfg_.channels, 0);
    // At most one CAS per channel per cycle, each in flight for
    // tCL + tBURST cycles (see inflight_; a zero latency still holds
    // one cycle's CASes until the next tick drains them).
    const Cycles latency =
        std::max<Cycles>(cfg_.timing.tCL + cfg_.timing.tBURST, 1);
    inflight_.resize(std::bit_ceil(std::size_t{cfg_.channels} * latency));
    inflightMask_ = inflight_.size() - 1;
}

std::unique_ptr<MemoryController>
makeController(const DramConfig &cfg, std::string_view policy,
               const SchedulerParams &params)
{
    return schedulerFromName(policy).makeController(cfg, params);
}

void
MemoryController::setLazyChannelScan(bool on)
{
    // The cache is only maintained while lazy scanning is on; entries
    // from a previous lazy phase are stale after a non-lazy interlude.
    if (on && !lazyChannels_)
        std::fill(channelWake_.begin(), channelWake_.end(), Cycles{0});
    lazyChannels_ = on;
}

void
ControllerStats::print(std::ostream &os, const std::string &prefix) const
{
    auto stat = [&](const char *name, double value, const char *desc) {
        os << prefix << "." << name << " " << value << " # " << desc
           << "\n";
    };
    stat("reads", static_cast<double>(reads), "read CAS commands");
    stat("writes", static_cast<double>(writes), "write CAS commands");
    stat("rowHits", static_cast<double>(rowHits),
         "CAS served from an open row");
    stat("rowMisses", static_cast<double>(rowMisses),
         "CAS that required an ACT");
    stat("rowBufferHitRate", rowBufferHitRate(),
         "row-buffer hit rate [0,1]");
    stat("refreshes", static_cast<double>(refreshes),
         "all-bank refresh operations");
    stat("bytesTransferred", static_cast<double>(bytesTransferred),
         "total data moved, bytes");
    stat("completed", static_cast<double>(completed),
         "completed requests");
    stat("avgLatency", averageLatency(),
         "mean request latency, cycles");
}

std::size_t
MemoryController::pendingRequests() const
{
    std::size_t n = inflightSize_;
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

double
MemoryController::effectiveBandwidthFraction(Cycles cycles) const
{
    if (cycles == 0)
        return 0.0;
    const double peak_bytes =
        static_cast<double>(cycles) * cfg_.channels *
        cfg_.bytesPerCyclePerChannel();
    return static_cast<double>(stats_.bytesTransferred) / peak_bytes;
}

} // namespace pccs::dram

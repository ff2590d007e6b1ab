#include "multi_mc.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pccs::dram {

const char *
mcMappingName(McMapping mapping)
{
    switch (mapping) {
      case McMapping::LineInterleaved:
        return "line-interleaved";
      case McMapping::RangePartitioned:
        return "range-partitioned";
    }
    panic("unknown McMapping %d", static_cast<int>(mapping));
}

MultiMcSystem::MultiMcSystem(const DramConfig &per_mc_cfg,
                             unsigned num_mcs, std::string_view policy,
                             McMapping mapping,
                             const SchedulerParams &sched_params,
                             McRunMode mode)
    : perMcCfg_(per_mc_cfg),
      mapping_(mapping),
      mode_(mode),
      bySource_(Scheduler::maxSources, nullptr)
{
    PCCS_ASSERT(num_mcs >= 1, "need at least one controller");
    for (unsigned m = 0; m < num_mcs; ++m) {
        mcs_.push_back(makeController(perMcCfg_, policy, sched_params));
        mcs_.back()->setCompletionCallback(
            [this](const Request &req) { deliver(req); });
    }
    perMcSpan_ = mcs_[0]->addressSpan();
    setRunMode(mode);
}

void
MultiMcSystem::setRunMode(McRunMode mode)
{
    mode_ = mode;
    // Lazy channel scans are part of the fast paths; lockstep stays
    // the plain every-cycle-evaluates-everything specification.
    for (auto &mc : mcs_)
        mc->setLazyChannelScan(mode != McRunMode::Lockstep);
}

void
MultiMcSystem::deliver(const Request &req)
{
    CoreTrafficGenerator *gen = bySource_[req.source];
    PCCS_ASSERT(gen != nullptr, "completion for unknown source %u",
                req.source);
    gen->onComplete(req);
}

unsigned
MultiMcSystem::route(Addr addr) const
{
    const unsigned n = numControllers();
    switch (mapping_) {
      case McMapping::LineInterleaved:
        return static_cast<unsigned>((addr / perMcCfg_.lineBytes) % n);
      case McMapping::RangePartitioned:
        return static_cast<unsigned>(
            std::min<Addr>(addr / perMcSpan_, n - 1));
    }
    panic("unknown McMapping %d", static_cast<int>(mapping_));
}

Addr
MultiMcSystem::localAddress(Addr addr) const
{
    const unsigned n = numControllers();
    switch (mapping_) {
      case McMapping::LineInterleaved: {
        const Addr line = addr / perMcCfg_.lineBytes;
        const Addr offset = addr % perMcCfg_.lineBytes;
        return (line / n) * perMcCfg_.lineBytes + offset;
      }
      case McMapping::RangePartitioned:
        return addr % perMcSpan_;
    }
    panic("unknown McMapping %d", static_cast<int>(mapping_));
}

bool
MultiMcSystem::enqueue(unsigned source, Addr addr, bool is_write,
                       Cycles now)
{
    return mcs_[route(addr)]->enqueue(source, localAddress(addr),
                                      is_write, now);
}

const RequestQueue &
MultiMcSystem::requestQueue(Addr addr) const
{
    return mcs_[route(addr)]->requestQueue(localAddress(addr));
}

unsigned
MultiMcSystem::lineBytes() const
{
    return perMcCfg_.lineBytes;
}

double
MultiMcSystem::cycleSeconds() const
{
    return perMcCfg_.timing.cycleSeconds();
}

Addr
MultiMcSystem::addressSpan() const
{
    return perMcSpan_ * numControllers();
}

std::size_t
MultiMcSystem::addGenerator(const TrafficParams &params)
{
    PCCS_ASSERT(params.source < Scheduler::maxSources,
                "source id %u out of range", params.source);
    PCCS_ASSERT(bySource_[params.source] == nullptr,
                "duplicate generator for source %u", params.source);
    generators_.push_back(
        std::make_unique<CoreTrafficGenerator>(params, *this));
    bySource_[params.source] = generators_.back().get();
    return generators_.size() - 1;
}

void
MultiMcSystem::run(Cycles cycles)
{
    const Cycles end = now_ + cycles;
    switch (mode_) {
      case McRunMode::Lockstep:
        runLockstep(end);
        return;
      case McRunMode::EventDriven:
        runEventDriven(end);
        return;
    }
    panic("unknown McRunMode %d", static_cast<int>(mode_));
}

bool
MultiMcSystem::stepCycle(bool skip_idle)
{
    bool active = false;
    for (auto &mc : mcs_)
        active |= mc->tick(now_);
    active |= tickRotated(generators_, now_, skip_idle);
    return active;
}

void
MultiMcSystem::runLockstep(Cycles end)
{
    // The original cycle-by-cycle loop, kept as the equivalence oracle
    // (--dram-reference / PCCS_DRAM_REFERENCE).
    while (now_ < end) {
        stepCycle(false);
        ++now_;
    }
}

void
MultiMcSystem::runEventDriven(Cycles end)
{
    while (now_ < end) {
        if (stepCycle(true)) {
            ++now_;
            continue;
        }
        // Every controller and every generator was quiet: jump to the
        // earliest cycle at which any of them could act. Idle channels
        // contribute kNoEvent and drop out of the min entirely. Each
        // controller's bound comes from its bank-mask next-event scan
        // (O(occupied banks), not a queue walk).
        Cycles wake = kNoEvent;
        for (const auto &mc : mcs_)
            wake = std::min(wake, mc->nextEventCycle(now_));
        for (const auto &gen : generators_)
            wake = std::min(wake, gen->nextIssueEvent(now_));
        now_ = std::min(end, std::max(wake, now_ + 1));
    }
}

void
MultiMcSystem::resetMeasurement()
{
    for (auto &mc : mcs_)
        mc->resetStats();
    for (auto &gen : generators_)
        gen->resetMeasurement();
    windowStart_ = now_;
}

GBps
MultiMcSystem::achievedBandwidth(std::size_t i) const
{
    return generators_[i]->achievedBandwidth(windowCycles());
}

double
MultiMcSystem::effectiveBandwidthFraction() const
{
    double sum = 0.0;
    for (const auto &mc : mcs_)
        sum += mc->effectiveBandwidthFraction(windowCycles());
    return sum / static_cast<double>(mcs_.size());
}

double
MultiMcSystem::rowBufferHitRate() const
{
    std::uint64_t hits = 0, misses = 0;
    for (const auto &mc : mcs_) {
        hits += mc->stats().rowHits;
        misses += mc->stats().rowMisses;
    }
    const std::uint64_t total = hits + misses;
    return total ? static_cast<double>(hits) /
                       static_cast<double>(total)
                 : 0.0;
}

std::uint64_t
MultiMcSystem::bytesServed(unsigned mc) const
{
    return mcs_[mc]->stats().bytesTransferred;
}

} // namespace pccs::dram

#include "system.hh"

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

DramSystem::DramSystem(const DramConfig &cfg, std::string_view policy,
                       const SchedulerParams &sched_params, RunMode mode)
    : DramSystem(cfg, 1, policy, McMapping::LineInterleaved,
                 sched_params, mode)
{
}

DramSystem::DramSystem(const DramConfig &per_mc_cfg, unsigned num_mcs,
                       std::string_view policy, McMapping mapping,
                       const SchedulerParams &sched_params, RunMode mode)
    : mapping_(mapping),
      lineBytes_(per_mc_cfg.lineBytes),
      bySource_(Scheduler::maxSources, nullptr),
      replayBySource_(Scheduler::maxSources, nullptr)
{
    PCCS_ASSERT(num_mcs >= 1, "need at least one controller");
    const auto deliver = [this](const Request &req) {
        if (CoreTrafficGenerator *gen = bySource_[req.source]) {
            gen->onComplete(req);
            return;
        }
        TraceReplayGenerator *rep = replayBySource_[req.source];
        PCCS_ASSERT(rep != nullptr, "completion for unknown source %u",
                    req.source);
        rep->onComplete(req);
    };
    for (unsigned m = 0; m < num_mcs; ++m) {
        mcs_.push_back(makeController(per_mc_cfg, policy, sched_params));
        mcs_.back()->setCompletionCallback(deliver);
    }
    perMcSpan_ = mcs_[0]->addressSpan();
    setRunMode(mode);
}

void
DramSystem::setRunMode(RunMode mode)
{
    mode_ = mode;
    for (auto &mc : mcs_)
        mc->setLazyChannelScan(mode == RunMode::EventDriven);
}

unsigned
DramSystem::route(Addr addr) const
{
    const unsigned n = numControllers();
    switch (mapping_) {
      case McMapping::LineInterleaved:
        return static_cast<unsigned>((addr / lineBytes_) % n);
      case McMapping::RangePartitioned:
        return static_cast<unsigned>(
            std::min<Addr>(addr / perMcSpan_, n - 1));
    }
    panic("unknown McMapping %d", static_cast<int>(mapping_));
}

Addr
DramSystem::localAddress(Addr addr) const
{
    const unsigned n = numControllers();
    switch (mapping_) {
      case McMapping::LineInterleaved: {
        const Addr line = addr / lineBytes_;
        const Addr offset = addr % lineBytes_;
        return (line / n) * lineBytes_ + offset;
      }
      case McMapping::RangePartitioned:
        return addr % perMcSpan_;
    }
    panic("unknown McMapping %d", static_cast<int>(mapping_));
}

bool
DramSystem::enqueue(unsigned source, Addr addr, bool is_write,
                    Cycles now)
{
    return mcs_[route(addr)]->enqueue(source, localAddress(addr),
                                      is_write, now);
}

const RequestQueue &
DramSystem::requestQueue(Addr addr) const
{
    return mcs_[route(addr)]->requestQueue(localAddress(addr));
}

void
DramSystem::checkFreeSource(unsigned source) const
{
    PCCS_ASSERT(source < Scheduler::maxSources,
                "source id %u out of range", source);
    PCCS_ASSERT(bySource_[source] == nullptr &&
                    replayBySource_[source] == nullptr,
                "duplicate generator for source %u", source);
}

std::size_t
DramSystem::addGenerator(const TrafficParams &params)
{
    checkFreeSource(params.source);
    generators_.push_back(
        std::make_unique<CoreTrafficGenerator>(params, sourcePort()));
    bySource_[params.source] = generators_.back().get();
    return generators_.size() - 1;
}

std::size_t
DramSystem::addReplay(const ReplayParams &params,
                      std::vector<TraceEntry> trace)
{
    checkFreeSource(params.source);
    replays_.push_back(std::make_unique<TraceReplayGenerator>(
        params, std::move(trace), sourcePort()));
    replayBySource_[params.source] = replays_.back().get();
    return replays_.size() - 1;
}

void
DramSystem::run(Cycles cycles)
{
    const Cycles end = now_ + cycles;
    if (mode_ == RunMode::Reference)
        runReference(end);
    else
        runEventDriven(end);
}

bool
DramSystem::stepCycle(bool skip_idle)
{
    // Completions drain inside the controller ticks, before any source
    // ticks, so a source's idleAt() sees every slot and MLP credit this
    // cycle frees.
    bool active = false;
    for (auto &mc : mcs_)
        active |= mc->tick(now_);
    active |= tickRotated(generators_, now_, skip_idle);
    active |= tickRotated(replays_, now_, skip_idle);
    return active;
}

void
DramSystem::runReference(Cycles end)
{
    // The original cycle-by-cycle loop, kept as the equivalence oracle
    // (--dram-reference / PCCS_DRAM_REFERENCE): every controller and
    // every source ticks, and a blocked source retries its enqueue, on
    // every cycle.
    while (now_ < end) {
        stepCycle(false);
        ++now_;
    }
}

void
DramSystem::runEventDriven(Cycles end)
{
    while (now_ < end) {
        if (stepCycle(true)) {
            // Something happened: the very next cycle may react to it
            // (a freed queue slot, a drained row hit, a legal command),
            // so no skipping is safe.
            ++now_;
            continue;
        }
        // Quiet cycle: jump to the earliest lower bound over every
        // event source. Each bound is conservative (waking early is a
        // no-op tick), so no state transition is ever skipped; each is
        // >= now_ + 1, so progress is guaranteed. Idle controllers
        // contribute kNoEvent and drop out of the min.
        Cycles wake = kNoEvent;
        for (const auto &mc : mcs_)
            wake = std::min(wake, mc->nextEventCycle(now_));
        for (const auto &gen : generators_)
            wake = std::min(wake, gen->nextIssueEvent(now_));
        for (const auto &rep : replays_)
            wake = std::min(wake, rep->nextIssueEvent(now_));
        now_ = std::min(end, std::max(wake, now_ + 1));
    }
}

void
DramSystem::resetMeasurement()
{
    for (auto &mc : mcs_)
        mc->resetStats();
    for (auto &gen : generators_)
        gen->resetMeasurement();
    for (auto &rep : replays_)
        rep->resetMeasurement();
    windowStart_ = now_;
}

GBps
DramSystem::achievedBandwidth(std::size_t i) const
{
    return generators_[i]->achievedBandwidth(windowCycles());
}

double
DramSystem::effectiveBandwidthFraction() const
{
    double sum = 0.0;
    for (const auto &mc : mcs_)
        sum += mc->effectiveBandwidthFraction(windowCycles());
    return sum / static_cast<double>(mcs_.size());
}

double
DramSystem::rowBufferHitRate() const
{
    ControllerStats pooled;
    for (const auto &mc : mcs_) {
        pooled.rowHits += mc->stats().rowHits;
        pooled.rowMisses += mc->stats().rowMisses;
    }
    return pooled.rowBufferHitRate();
}

} // namespace pccs::dram

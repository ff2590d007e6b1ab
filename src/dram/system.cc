#include "system.hh"

#include <algorithm>
#include <bit>

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
    // The controllers' AddressMapper asserted both are powers of two.
    lineShift_ = static_cast<unsigned>(std::countr_zero(lineBytes_));
    spanShift_ = static_cast<unsigned>(std::countr_zero(perMcSpan_));
    mcShift_ = std::has_single_bit(num_mcs) ? std::countr_zero(num_mcs)
                                            : -1;
    setRunMode(mode);
}

void
DramSystem::setRunMode(RunMode mode)
{
    mode_ = mode;
    for (auto &mc : mcs_)
        mc->setLazyChannelScan(mode == RunMode::EventDriven);
}

DramSystem::Routed
DramSystem::split(Addr addr) const
{
    const unsigned n = numControllers();
    switch (mapping_) {
      case McMapping::LineInterleaved: {
        // line % n picks the MC; line / n is the line's index there.
        const Addr line = addr >> lineShift_;
        const Addr offset = addr & (lineBytes_ - 1);
        if (mcShift_ >= 0) {
            return {static_cast<unsigned>(line & (n - 1)),
                    ((line >> mcShift_) << lineShift_) | offset};
        }
        return {static_cast<unsigned>(line % n),
                ((line / n) << lineShift_) | offset};
      }
      case McMapping::RangePartitioned:
        // Addresses past the last MC's range land on the last MC.
        return {static_cast<unsigned>(
                    std::min<Addr>(addr >> spanShift_, n - 1)),
                addr & (perMcSpan_ - 1)};
    }
    panic("unknown McMapping %d", static_cast<int>(mapping_));
}

bool
DramSystem::enqueue(unsigned source, Addr addr, bool is_write,
                    Cycles now)
{
    const Routed r = split(addr);
    return mcs_[r.mc]->enqueue(source, r.local, is_write, now);
}

const RequestQueue &
DramSystem::requestQueue(Addr addr) const
{
    const Routed r = split(addr);
    return mcs_[r.mc]->requestQueue(r.local);
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
    syncRotation();
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
    syncRotation();
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

void
DramSystem::syncRotation()
{
    const auto turn = [this](std::size_t n) {
        return n ? static_cast<std::size_t>(now_ % n) : 0;
    };
    generatorTurn_ = turn(generators_.size());
    replayTurn_ = turn(replays_.size());
}

void
DramSystem::stepForward()
{
    ++now_;
    if (++generatorTurn_ >= generators_.size())
        generatorTurn_ = 0;
    if (++replayTurn_ >= replays_.size())
        replayTurn_ = 0;
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
    active |= tickRotated(generators_, generatorTurn_, now_, skip_idle);
    active |= tickRotated(replays_, replayTurn_, now_, skip_idle);
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
        stepForward();
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
            stepForward();
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
        syncRotation();
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

#include "system.hh"

#include "common/logging.hh"

namespace pccs::dram {

DramSystem::DramSystem(const DramConfig &cfg, std::string_view policy,
                       const SchedulerParams &sched_params,
                       DramRunMode mode)
    : mode_(mode),
      controller_(makeController(cfg, policy, sched_params)),
      bySource_(Scheduler::maxSources, nullptr),
      replayBySource_(Scheduler::maxSources, nullptr)
{
    controller_->setLazyChannelScan(mode == DramRunMode::EventDriven);
    controller_->setCompletionCallback([this](const Request &req) {
        if (CoreTrafficGenerator *gen = bySource_[req.source]) {
            gen->onComplete(req);
            return;
        }
        TraceReplayGenerator *rep = replayBySource_[req.source];
        PCCS_ASSERT(rep != nullptr, "completion for unknown source %u",
                    req.source);
        rep->onComplete(req);
    });
}

std::size_t
DramSystem::addReplay(const ReplayParams &params,
                      std::vector<TraceEntry> trace)
{
    PCCS_ASSERT(params.source < Scheduler::maxSources,
                "source id %u out of range", params.source);
    PCCS_ASSERT(bySource_[params.source] == nullptr &&
                    replayBySource_[params.source] == nullptr,
                "duplicate generator for source %u", params.source);
    replays_.push_back(std::make_unique<TraceReplayGenerator>(
        params, std::move(trace), *controller_));
    replayBySource_[params.source] = replays_.back().get();
    return replays_.size() - 1;
}

std::size_t
DramSystem::addGenerator(const TrafficParams &params)
{
    PCCS_ASSERT(params.source < Scheduler::maxSources,
                "source id %u out of range", params.source);
    PCCS_ASSERT(bySource_[params.source] == nullptr &&
                    replayBySource_[params.source] == nullptr,
                "duplicate generator for source %u", params.source);
    generators_.push_back(
        std::make_unique<CoreTrafficGenerator>(params, *controller_));
    bySource_[params.source] = generators_.back().get();
    return generators_.size() - 1;
}

void
DramSystem::run(Cycles cycles)
{
    const Cycles end = now_ + cycles;
    if (mode_ == DramRunMode::Reference)
        runReference(end);
    else
        runEventDriven(end);
}

bool
DramSystem::stepCycle(bool skip_idle)
{
    // Completions drain inside the controller tick, before any source
    // ticks, so a source's idleAt() sees every slot and MLP credit this
    // cycle frees.
    bool active = controller_->tick(now_);
    active |= tickRotated(generators_, now_, skip_idle);
    active |= tickRotated(replays_, now_, skip_idle);
    return active;
}

void
DramSystem::runReference(Cycles end)
{
    // The original cycle-by-cycle loop, kept as the equivalence oracle
    // (--dram-reference / PCCS_DRAM_REFERENCE): every source ticks, and
    // a blocked one retries its enqueue, on every cycle.
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
        // >= now_ + 1, so progress is guaranteed.
        Cycles wake = controller_->nextEventCycle(now_);
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
    controller_->resetStats();
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
    return controller_->effectiveBandwidthFraction(windowCycles());
}

} // namespace pccs::dram

#include "traffic.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pccs::dram {

CoreTrafficGenerator::CoreTrafficGenerator(const TrafficParams &params,
                                           MemoryPort &port)
    : params_(params), port_(port), rng_(params.seed),
      bucket_(params.demand * bytesPerGB * port.cycleSeconds(),
              port.lineBytes())
{
    PCCS_ASSERT(params_.demand > 0.0, "traffic demand must be positive");
    PCCS_ASSERT(params_.mlp > 0, "traffic mlp must be positive");

    // Give each source a private slice of the address space so sources
    // never share rows: slice the row index range.
    const Addr span = port_.addressSpan();
    regionLines_ = span / port_.lineBytes() / Scheduler::maxSources;
    PCCS_ASSERT(regionLines_ > 0, "address space too small for %u sources",
                Scheduler::maxSources);
    regionBase_ = params_.source * regionLines_ * port_.lineBytes();
    cursor_ = rng_.below(regionLines_);
}

Cycles
CoreTrafficGenerator::nextIssueEvent(Cycles now) const
{
    // Gated on a completion (MLP) or on queue space (backpressure):
    // both only clear through controller activity, which is itself a
    // wake, so no standalone event is needed. A rejected enqueue
    // changes no controller state (request ids are assigned on
    // acceptance), and the event-driven loops do not even retry until
    // the buffer has room (idleAt()).
    if (outstanding_ >= params_.mlp || blockedOn_)
        return kNoEvent;
    return std::max(bucket_.lineReadyAt(), now + 1);
}

void
CoreTrafficGenerator::resetMeasurement()
{
    completedLines_ = 0;
    issuedLines_ = 0;
    rejectedEnqueues_ = 0;
}

GBps
CoreTrafficGenerator::achievedBandwidth(Cycles window_cycles) const
{
    const double seconds =
        static_cast<double>(window_cycles) * port_.cycleSeconds();
    return toGBps(static_cast<double>(completedLines_) *
                      port_.lineBytes(),
                  seconds);
}

} // namespace pccs::dram

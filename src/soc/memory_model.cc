#include "memory_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "common/statistics.hh"

namespace pccs::soc {

SharedMemorySystem::SharedMemorySystem(const MemoryParams &params)
    : params_(params)
{
    PCCS_ASSERT(params_.peakBandwidth > 0.0, "peak bandwidth must be > 0");
    PCCS_ASSERT(params_.minEfficiency <= params_.baseEfficiency,
                "efficiency floor exceeds base efficiency");
}

GBps
SharedMemorySystem::effectiveBandwidth(
    std::span<const BandwidthDemand> demands) const
{
    double total = 0.0;
    for (const auto &d : demands)
        total += d.demand;
    if (total <= 0.0)
        return params_.peakBandwidth * params_.baseEfficiency;

    // Utilization saturates at 1: once the bus is fully loaded, extra
    // *demand* (as opposed to extra served traffic) cannot degrade the
    // row-buffer behavior further. This saturation is what produces
    // the flat tails of the slowdown curves.
    const double util = std::min(1.0, total / params_.peakBandwidth);

    // Mixing index: 0 for a single source, -> 1 as many equal-demand
    // sources interleave (1 - Herfindahl index of demand shares).
    double hhi = 0.0;
    for (const auto &d : demands) {
        const double share = d.demand / total;
        hhi += share * share;
    }
    const double mixing = (1.0 - hhi) * util;

    // Demand-weighted locality deficit of the streams themselves.
    double locality_deficit = 0.0;
    for (const auto &d : demands)
        locality_deficit += (d.demand / total) * (1.0 - d.locality);

    const double efficiency =
        clamp(params_.baseEfficiency - params_.mixPenalty * mixing -
                  params_.localityPenalty * locality_deficit,
              params_.minEfficiency, params_.baseEfficiency);
    return params_.peakBandwidth * efficiency;
}

void
SharedMemorySystem::waterFill(std::span<const BandwidthDemand> demands,
                              GBps capacity, std::span<GBps> grants)
{
    const std::size_t n = demands.size();
    double total = 0.0;
    for (const auto &d : demands)
        total += d.demand;
    if (total <= capacity) {
        for (std::size_t i = 0; i < n; ++i)
            grants[i] = demands[i].demand;
        return;
    }

    // Find the fill level f such that sum(min(d_i, w_i * f)) == capacity
    // by bisection on f; min(d_i, w_i*f) is monotone in f.
    //
    // The loop exits at its fixed point, which gives the same fill as
    // running all 64 steps. Once f == lo or f == hi, the step either
    // leaves (lo, hi) unchanged, so every later step repeats it, or
    // collapses the bracket to lo == hi == f, where 0.5 * (f + f) == f
    // exactly (doubling and halving a binary float are exact short of
    // overflow). Either
    // way every later midpoint, and the final one, is f.
    double lo = 0.0;
    double hi = capacity;
    for (const auto &d : demands)
        if (d.weight > 0.0)
            hi = std::max(hi, d.demand / d.weight);
    double fill = 0.5 * (lo + hi);
    for (int iter = 0; iter < 64 && fill != lo && fill != hi; ++iter) {
        double served = 0.0;
        for (const auto &d : demands)
            served += std::min(d.demand, d.weight * fill);
        if (served < capacity)
            lo = fill;
        else
            hi = fill;
        fill = 0.5 * (lo + hi);
    }
    for (std::size_t i = 0; i < n; ++i)
        grants[i] = std::min(demands[i].demand, demands[i].weight * fill);
}

AllocationResult
SharedMemorySystem::allocate(std::span<const BandwidthDemand> demands) const
{
    AllocationResult res;
    res.grants.resize(demands.size());
    res.effectiveBandwidth = allocateInto(demands, res.grants);
    res.efficiency = res.effectiveBandwidth / params_.peakBandwidth;

    double total = 0.0;
    for (const auto &d : demands)
        total += d.demand;
    res.loadRatio = res.effectiveBandwidth > 0.0
                        ? std::min(total, res.effectiveBandwidth) /
                              res.effectiveBandwidth
                        : 0.0;
    return res;
}

GBps
SharedMemorySystem::allocateInto(std::span<const BandwidthDemand> demands,
                                 std::span<GBps> grants) const
{
    PCCS_ASSERT(grants.size() == demands.size(),
                "allocateInto: %zu grants for %zu demands", grants.size(),
                demands.size());
    const GBps eff = effectiveBandwidth(demands);
    switch (params_.policy) {
      case AllocationPolicy::FairWaterFill:
        waterFill(demands, eff, grants);
        break;
      case AllocationPolicy::Proportional: {
        // The Gables assumption: no reduction until the *nominal* peak
        // is exceeded; then pro-rate demands into the peak.
        double total = 0.0;
        for (const auto &d : demands)
            total += d.demand;
        const double scale = total > params_.peakBandwidth
                                 ? params_.peakBandwidth / total
                                 : 1.0;
        for (std::size_t i = 0; i < demands.size(); ++i)
            grants[i] = demands[i].demand * scale;
        break;
      }
    }
    return eff;
}

} // namespace pccs::soc

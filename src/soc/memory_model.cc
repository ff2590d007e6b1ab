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

namespace {

/**
 * The real-valued fill level: the f at which sum(min(d_i, w_i * f))
 * reaches `capacity`, or `top` when the weighted demands cannot reach
 * it. Newton steps on the concave, piecewise-linear served curve climb
 * from f = 0 and saturate at least one more source each, so there are
 * at most n + 1 of them. Only a seed for the exact solve.
 */
double
levelEstimate(std::span<const BandwidthDemand> demands, GBps capacity,
              double top)
{
    double f = 0.0;
    for (std::size_t step = 0; step <= demands.size(); ++step) {
        double fixed = 0.0;
        double slope = 0.0;
        for (const auto &d : demands) {
            if (d.demand <= d.weight * f)
                fixed += d.demand;
            else
                slope += d.weight;
        }
        if (!(slope > 0.0))
            return top;
        const double next = (capacity - fixed) / slope;
        if (!(next > f))
            break;
        f = next;
    }
    return f;
}

} // namespace

void
SharedMemorySystem::waterFill(std::span<const BandwidthDemand> demands,
                              GBps capacity, std::span<GBps> grants,
                              BisectionTrace *trace)
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

    // The fill level f is the end of a 64-step bisection of [0, hi]
    // that moves hi down wherever sum(min(d_i, w_i * f)) covers the
    // capacity. That sum never decreases as f grows (each term and
    // each rounded addition is monotone for w_i >= 0), so the level is
    // solved exactly from the sum's flip point.
    double hi = capacity;
    for (const auto &d : demands) {
        PCCS_ASSERT(!(d.weight < 0.0), "negative fairness weight %g",
                    d.weight);
        if (d.weight > 0.0)
            hi = std::max(hi, d.demand / d.weight);
    }
    const auto covers = [demands, capacity](double f) {
        double served = 0.0;
        for (const auto &d : demands)
            served += std::min(d.demand, d.weight * f);
        return !(served < capacity);
    };
    const double fill = solveBisection<Midpoint::Arithmetic>(
        0.0, hi, 64, levelEstimate(demands, capacity, hi), covers, trace);
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

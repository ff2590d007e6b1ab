/**
 * @file
 * The shared-memory contention model of the SoC simulator.
 *
 * Two mechanisms — identified by the paper's Section 2.3 analysis as
 * the causes of the observed three-region slowdown shapes — are
 * modeled explicitly:
 *
 * 1. Load-dependent effective bandwidth. The memory controller keeps a
 *    high row-buffer hit rate for a single streaming source, but when
 *    several sources interleave their requests, the hit rate (and with
 *    it the achievable fraction of peak bandwidth) degrades. This is
 *    why contention effects appear even before the sum of demands
 *    reaches the nominal peak (the paper's Figure 2 observation).
 *
 * 2. Fairness-controlled allocation. A fairness-aware scheduling
 *    policy (ATLAS/TCM/SMS class) grants every source up to a weighted
 *    fair share of the effective bandwidth: small demands are always
 *    satisfied, and a source demanding more than its share is capped
 *    at it — which is why a victim's slowdown flattens once the
 *    external demand exceeds the external sources' granted share
 *    (the flat segment past the Contention Balance Point).
 *
 * A proportional-sharing mode reproduces the Gables assumption and is
 * used for ablation.
 */

#ifndef PCCS_SOC_MEMORY_MODEL_HH
#define PCCS_SOC_MEMORY_MODEL_HH

#include <span>
#include <vector>

#include "common/bisection.hh"
#include "common/units.hh"

namespace pccs::soc {

/** How the effective bandwidth is divided among competing sources. */
enum class AllocationPolicy
{
    /** Weighted water-filling (fairness control); the default. */
    FairWaterFill,
    /** Pro-rata division of peak bandwidth (the Gables assumption). */
    Proportional,
};

/** Parameters of the shared memory subsystem. */
struct MemoryParams
{
    /** Theoretical peak bandwidth, GB/s. */
    GBps peakBandwidth = 137.0;

    /**
     * Fraction of peak achievable by a single well-behaved streaming
     * source (row-buffer-friendly traffic).
     */
    double baseEfficiency = 0.93;

    /** Efficiency floor under heavy multi-source interleaving. */
    double minEfficiency = 0.62;

    /**
     * Strength of the efficiency loss caused by request interleaving
     * between sources (multiplies a mixing index in [0, 1]).
     */
    double mixPenalty = 0.22;

    /**
     * Strength of the efficiency loss caused by poor row locality of
     * the access streams themselves.
     */
    double localityPenalty = 0.30;

    /** Scale of queueing-latency inflation with served load. */
    double latencyLoad = 1.0;

    AllocationPolicy policy = AllocationPolicy::FairWaterFill;

    /** @return a copy with peak bandwidth scaled by `ratio`. */
    MemoryParams scaled(double ratio) const
    {
        MemoryParams m = *this;
        m.peakBandwidth = peakBandwidth * ratio;
        return m;
    }
};

/** One competing source as the allocator sees it. */
struct BandwidthDemand
{
    /** Requested (standalone) bandwidth, GB/s. */
    GBps demand = 0.0;
    /** Row locality of the stream, [0, 1]. */
    double locality = 0.9;
    /** Fairness weight of the owning PU, >= 0. */
    double weight = 1.0;
};

/** Result of one allocation round. */
struct AllocationResult
{
    /** Granted bandwidth per source, GB/s (same order as demands). */
    std::vector<GBps> grants;
    /** Effective total bandwidth under this load, GB/s. */
    GBps effectiveBandwidth = 0.0;
    /** Served-load ratio in [0, 1]: min(total demand, eff) / eff. */
    double loadRatio = 0.0;
    /** Modeled row-buffer efficiency in [minEff, baseEff]. */
    double efficiency = 0.0;
};

/**
 * The shared-memory bandwidth allocator (one call = one steady-state
 * epoch). Demand lists are taken as spans, so callers may pass a
 * std::vector or a stack buffer alike.
 */
class SharedMemorySystem
{
  public:
    explicit SharedMemorySystem(const MemoryParams &params);

    /** Allocate bandwidth among the given concurrent demands. */
    AllocationResult allocate(
        std::span<const BandwidthDemand> demands) const;

    /**
     * Allocation-free core of allocate(): writes the grant of
     * demands[i] to grants[i] (grants.size() == demands.size()) and
     * returns the effective total bandwidth, GB/s.
     */
    GBps allocateInto(std::span<const BandwidthDemand> demands,
                      std::span<GBps> grants) const;

    /**
     * Effective total bandwidth under the given demand set, GB/s
     * (before division among sources).
     */
    GBps effectiveBandwidth(
        std::span<const BandwidthDemand> demands) const;

    const MemoryParams &params() const { return params_; }

    /**
     * Weighted water-filling: find grants g_i = min(d_i, w_i * f) with
     * sum(g_i) = min(sum(d_i), capacity), written to `grants`. The
     * fill f is bit-identical to the end of a 64-step bisection of
     * [0, max(capacity, max d_i / w_i)]; `trace`, when given, records
     * how it was solved (the all-satisfied exit leaves it untouched).
     * Weights must be non-negative.
     */
    static void waterFill(std::span<const BandwidthDemand> demands,
                          GBps capacity, std::span<GBps> grants,
                          BisectionTrace *trace = nullptr);

  private:
    MemoryParams params_;
};

} // namespace pccs::soc

#endif // PCCS_SOC_MEMORY_MODEL_HH

/**
 * @file
 * The PU execution model: converts a kernel profile, a PU description,
 * and a memory-bandwidth grant into an execution rate.
 *
 * Per DRAM byte of work, the kernel spends t_c = I / C seconds of
 * compute and t_m = 1 / S seconds of memory service (S = the PU's
 * draw capability bounded by the memory system's single-source
 * effective bandwidth); the two overlap according to the PU's overlap
 * quality o:
 *
 *     t_base = max(t_c, t_m) + (1 - o) * min(t_c, t_m)
 *
 * Under contention two independent effects add:
 *
 *  - queueing-latency inflation, proportional to the interference
 *    phi (the share of effective bandwidth served to *other* sources)
 *    and to the latency-exposed time (t_m + (1 - o) * t_c):
 *        stall = eta * latencyLoad * phi * (t_m + (1 - o) * t_c)
 *  - the fairness allocation's bandwidth grant G, a hard progress
 *    ceiling:
 *        t = max(t_base + stall, 1 / G)
 *
 * The stall term is what slows down even low-bandwidth kernels (the
 * minor contention region; and, with low overlap, the DLA's missing
 * minor region); the grant term produces the drop and the flat tail
 * of the normal/intensive regions. Standalone, phi = 0 and G equals
 * the demand, so the standalone rate is 1 / t_base with no iteration.
 */

#ifndef PCCS_SOC_EXEC_MODEL_HH
#define PCCS_SOC_EXEC_MODEL_HH

#include <algorithm>
#include <span>
#include <vector>

#include "common/inline_buffer.hh"
#include "soc/kernel.hh"
#include "soc/memory_model.hh"
#include "soc/pu.hh"

namespace pccs::soc {

/** Standalone characterization of one kernel on one PU. */
struct StandaloneProfile
{
    /** Achieved standalone bandwidth = demand fed to slowdown models. */
    GBps bandwidthDemand = 0.0;
    /** Execution rate in DRAM bytes per second. */
    double rate = 0.0;
    /** Standalone execution time of the kernel's workBytes, seconds. */
    double seconds = 0.0;
};

/** Execution rates of a set of co-running kernels. */
struct CorunRates
{
    /** Progress rate per placement, DRAM bytes per second. */
    std::vector<double> rates;
    /** The bandwidth allocation that produced the rates. */
    AllocationResult allocation;
};

/**
 * The terms of the rate formula that do not depend on the kernel's
 * intensity, for one PU and one stream locality. rate() evaluates the
 * formula for an intensity, so a search over intensities (the
 * calibrator bisection) pays for these terms once.
 */
struct RateTerms
{
    /** Compute throughput, flops/s. */
    double compute = 0.0;
    /** Solo memory service time t_m, s per byte. */
    double serviceTime = 0.0;
    /** Compute/memory overlap quality o of the PU. */
    double overlap = 0.0;
    /** Latency inflation per unit of interference. */
    double latencySlope = 0.0;

    /** Bytes/second given a grant (GB/s) and interference share. */
    double rate(double intensity, GBps grant, double interference) const
    {
        const double t_c = intensity / compute; // s per byte
        const double t_m = serviceTime;

        // Base time per byte with compute/memory overlap.
        const double t_base =
            std::max(t_c, t_m) + (1.0 - overlap) * std::min(t_c, t_m);

        // Queueing-latency inflation: interference (the fraction of
        // effective bandwidth served to *other* sources) lengthens
        // every access of this PU's stream, pacing the whole kernel —
        // the per-PU latency sensitivity encodes how much of that
        // inflation the PU's parallelism hides. The inflation is
        // independent of the kernel's own demand, matching the
        // observation that the paper's minor-region slope (MRMC) is a
        // per-PU constant.
        const double inflation = 1.0 + latencySlope * interference;

        // Bandwidth constraint: progress can never outrun the granted
        // bandwidth. Unconstrained kernels have grant == demand, where
        // 1/grant == t_base and the latency path dominates.
        double t = t_base * inflation;
        if (grant > 0.0)
            t = std::max(t, 1.0 / (grant * bytesPerGB));
        return 1.0 / t; // bytes per second
    }
};

/** Demand lists up to this many sources are built on the stack. */
inline constexpr std::size_t inlineDemands = 8;

/** Scratch demand list for one co-run evaluation. */
using DemandBuffer = InlineBuffer<BandwidthDemand, inlineDemands>;

/**
 * Steady-state execution model over a shared memory system.
 */
class ExecutionModel
{
  public:
    explicit ExecutionModel(const MemoryParams &mem);

    /**
     * Profile a kernel running alone on a PU (the simulator's analogue
     * of profiling standalone runs with NVperf/perf).
     */
    StandaloneProfile standalone(const PuParams &pu,
                                 const KernelProfile &kernel) const;

    /**
     * Steady-state co-run rates for kernels[i] on pus[i] (parallel
     * arrays; each PU runs one kernel, matching the paper's scenario).
     */
    CorunRates corun(const std::vector<PuParams> &pus,
                     const std::vector<KernelProfile> &kernels) const;

    /**
     * Achieved relative speed (%) of kernel on pu when co-running with
     * the given external demand set. This is the quantity the paper's
     * figures plot.
     */
    double relativeSpeed(const PuParams &pu, const KernelProfile &kernel,
                         std::span<const BandwidthDemand> external) const;

    /**
     * relativeSpeed() over a caller-built demand list: demands[1..]
     * are the external sources, and demands[0] is overwritten with
     * the kernel's own standalone demand. Allocation-free for up to
     * inlineDemands sources.
     */
    double relativeSpeedInPlace(const PuParams &pu,
                                const KernelProfile &kernel,
                                std::span<BandwidthDemand> demands) const;

    /** The intensity-independent rate terms of `pu` at `locality`. */
    RateTerms rateTerms(const PuParams &pu, double locality) const;

    const SharedMemorySystem &memory() const { return mem_; }

  private:
    SharedMemorySystem mem_;
};

} // namespace pccs::soc

#endif // PCCS_SOC_EXEC_MODEL_HH

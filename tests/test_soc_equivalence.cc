/**
 * @file
 * Bit-exactness of the allocation-free SoC evaluation path.
 *
 * The per-point path (SocSimulator::relativeSpeedUnderPressure), the
 * water-fill allocator and the calibrator bisection all stop their
 * bisections at a fixed point and build demand lists in stack
 * buffers. Each is compared bitwise (memcmp) against a test-local
 * reference that composes vectors and runs every bisection step: the
 * straightforward form of the same model. Randomized SoCs span 1 to 20
 * PUs, so demand lists both fit the inline buffer and spill to the
 * heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "calib/calibrator.hh"
#include "common/rng.hh"
#include "soc/simulator.hh"

namespace pccs::soc {
namespace {

bool
bitEqual(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// ---- Reference: vector composition, full-length bisections. --------

std::vector<GBps>
refWaterFill(const std::vector<BandwidthDemand> &demands, GBps capacity)
{
    const std::size_t n = demands.size();
    std::vector<GBps> grants(n, 0.0);
    double total = 0.0;
    for (const auto &d : demands)
        total += d.demand;
    if (total <= capacity) {
        for (std::size_t i = 0; i < n; ++i)
            grants[i] = demands[i].demand;
        return grants;
    }
    double lo = 0.0;
    double hi = capacity;
    for (const auto &d : demands)
        if (d.weight > 0.0)
            hi = std::max(hi, d.demand / d.weight);
    for (int iter = 0; iter < 64; ++iter) {
        const double f = 0.5 * (lo + hi);
        double served = 0.0;
        for (const auto &d : demands)
            served += std::min(d.demand, d.weight * f);
        if (served < capacity)
            lo = f;
        else
            hi = f;
    }
    const double fill = 0.5 * (lo + hi);
    for (std::size_t i = 0; i < n; ++i)
        grants[i] = std::min(demands[i].demand, demands[i].weight * fill);
    return grants;
}

std::vector<GBps>
refGrants(const SharedMemorySystem &mem,
          const std::vector<BandwidthDemand> &demands)
{
    const GBps eff = mem.effectiveBandwidth(demands);
    if (mem.params().policy == AllocationPolicy::FairWaterFill)
        return refWaterFill(demands, eff);
    double total = 0.0;
    for (const auto &d : demands)
        total += d.demand;
    const double peak = mem.params().peakBandwidth;
    const double scale = total > peak ? peak / total : 1.0;
    std::vector<GBps> grants(demands.size());
    for (std::size_t i = 0; i < demands.size(); ++i)
        grants[i] = demands[i].demand * scale;
    return grants;
}

double
refRate(const SharedMemorySystem &mem, const PuParams &pu,
        const KernelProfile &kernel, GBps grant, double interference)
{
    const double compute = pu.computeGflops() * 1e9;
    const double t_c = kernel.intensity / compute;
    std::vector<BandwidthDemand> solo{
        {1.0, kernel.locality, pu.fairShareWeight}};
    const double service =
        std::min(pu.drawBandwidth() * bytesPerGB,
                 mem.effectiveBandwidth(solo) * bytesPerGB);
    const double t_m = 1.0 / service;
    const double t_base = std::max(t_c, t_m) +
                          (1.0 - pu.overlap) * std::min(t_c, t_m);
    const double inflation = 1.0 + pu.latencySensitivity *
                                       mem.params().latencyLoad *
                                       interference;
    double t = t_base * inflation;
    if (grant > 0.0)
        t = std::max(t, 1.0 / (grant * bytesPerGB));
    return 1.0 / t;
}

std::vector<BandwidthDemand>
refExternalDemands(const SocConfig &soc, std::size_t target_pu,
                   GBps total_demand)
{
    std::vector<BandwidthDemand> out;
    if (total_demand <= 0.0)
        return out;
    double cap_sum = 0.0;
    for (std::size_t i = 0; i < soc.pus.size(); ++i)
        if (i != target_pu)
            cap_sum += soc.pus[i].drawBandwidth();
    if (cap_sum <= 0.0)
        return out;
    for (std::size_t i = 0; i < soc.pus.size(); ++i) {
        if (i == target_pu)
            continue;
        const GBps cap = soc.pus[i].drawBandwidth();
        const GBps share = std::min(cap, total_demand * cap / cap_sum);
        if (share > 0.0)
            out.push_back({share, 0.97, soc.pus[i].fairShareWeight});
    }
    return out;
}

double
refRelativeSpeed(const SharedMemorySystem &mem, const PuParams &pu,
                 const KernelProfile &kernel,
                 const std::vector<BandwidthDemand> &external)
{
    const double solo_rate = refRate(mem, pu, kernel, 0.0, 0.0);
    std::vector<BandwidthDemand> demands;
    demands.push_back(
        {solo_rate / bytesPerGB, kernel.locality, pu.fairShareWeight});
    for (const auto &e : external)
        demands.push_back(e);
    const GBps eff = mem.effectiveBandwidth(demands);
    const std::vector<GBps> grants = refGrants(mem, demands);
    double served = 0.0;
    for (GBps g : grants)
        served += g;
    const double interference =
        eff > 0.0 ? (served - grants[0]) / eff : 0.0;
    const double corun_rate =
        refRate(mem, pu, kernel, grants[0], interference);
    return solo_rate > 0.0 ? 100.0 * corun_rate / solo_rate : 0.0;
}

double
refCalibratorIntensity(const SharedMemorySystem &mem, const PuParams &pu,
                       GBps target_bw, double locality)
{
    KernelProfile kernel;
    kernel.locality = locality;
    auto demand = [&](double intensity) {
        kernel.intensity = intensity;
        return refRate(mem, pu, kernel, 0.0, 0.0) / bytesPerGB;
    };
    double lo = 1e-4;
    double hi = 1e5;
    if (target_bw >= demand(lo))
        return lo;
    for (int iter = 0; iter < 80; ++iter) {
        const double mid = std::sqrt(lo * hi);
        if (demand(mid) > target_bw)
            lo = mid;
        else
            hi = mid;
    }
    return std::sqrt(lo * hi);
}

// ---- Randomized SoCs. ------------------------------------------------

PuParams
randomPu(Rng &rng, std::size_t i)
{
    PuParams pu;
    pu.name = "pu" + std::to_string(i);
    pu.kind = static_cast<PuKind>(rng.below(3));
    pu.maxFrequency = rng.uniform(500.0, 2500.0);
    pu.frequency = pu.maxFrequency * rng.uniform(0.2, 1.0);
    pu.flopsPerCycle = rng.uniform(4.0, 2048.0);
    pu.interfaceBandwidth = rng.uniform(5.0, 150.0);
    pu.issueBandwidth = rng.uniform(5.0, 200.0);
    pu.overlap = rng.uniform(0.0, 1.0);
    pu.latencySensitivity = rng.uniform(0.0, 2.0);
    pu.fairShareWeight = rng.uniform(0.3, 2.5);
    return pu;
}

/** A random SoC with `n` PUs; with `zero_weight`, one PU has weight 0. */
SocConfig
randomSoc(Rng &rng, std::size_t n, bool zero_weight, AllocationPolicy policy)
{
    SocConfig soc;
    soc.name = "random";
    soc.memory.peakBandwidth = rng.uniform(20.0, 200.0);
    soc.memory.baseEfficiency = rng.uniform(0.8, 0.97);
    soc.memory.minEfficiency = rng.uniform(0.4, 0.75);
    soc.memory.mixPenalty = rng.uniform(0.0, 0.5);
    soc.memory.localityPenalty = rng.uniform(0.0, 0.5);
    soc.memory.latencyLoad = rng.uniform(0.5, 2.0);
    soc.memory.policy = policy;
    for (std::size_t i = 0; i < n; ++i)
        soc.pus.push_back(randomPu(rng, i));
    if (zero_weight)
        soc.pus[rng.below(n)].fairShareWeight = 0.0;
    return soc;
}

KernelProfile
randomKernel(Rng &rng)
{
    KernelProfile k;
    k.name = "random";
    k.intensity = std::exp(rng.uniform(std::log(1e-3), std::log(1e3)));
    k.locality = rng.uniform(0.2, 1.0);
    return k;
}

TEST(SocEquivalence, RelativeSpeedUnderPressureMatchesVectorReference)
{
    Rng rng(2024);
    std::size_t points = 0;
    std::size_t spilled = 0;
    for (int c = 0; c < 400; ++c) {
        const std::size_t n = 1 + static_cast<std::size_t>(c) % 20;
        const AllocationPolicy policy =
            c % 2 == 0 ? AllocationPolicy::FairWaterFill
                       : AllocationPolicy::Proportional;
        const SocConfig soc = randomSoc(rng, n, c % 3 == 0, policy);
        const SocSimulator sim(soc);
        const SharedMemorySystem mem(soc.memory);
        if (n > inlineDemands)
            ++spilled;

        for (int t = 0; t < 3; ++t) {
            const std::size_t pu = rng.below(n);
            const KernelProfile k = randomKernel(rng);
            // An unsaturated ladder below half of peak, then a
            // saturated one out to three times peak.
            for (int j = 0; j <= 12; ++j) {
                const double frac = j <= 6 ? 0.5 * j / 6.0
                                           : 0.5 + 2.5 * (j - 6) / 6.0;
                const GBps y = frac * soc.memory.peakBandwidth;
                const std::vector<BandwidthDemand> ext =
                    refExternalDemands(soc, pu, y);
                const double want =
                    refRelativeSpeed(mem, soc.pus[pu], k, ext);
                const double got = sim.relativeSpeedUnderPressure(pu, k, y);
                ASSERT_TRUE(bitEqual(want, got))
                    << "soc " << c << " (" << n << " PUs) pu " << pu
                    << " y " << y << ": " << want << " vs " << got;
                // The span form over a caller vector agrees too.
                const double via_vector = sim.model().relativeSpeed(
                    soc.pus[pu], k, externalDemands(soc, pu, y));
                ASSERT_TRUE(bitEqual(want, via_vector))
                    << "soc " << c << " pu " << pu << " y " << y;
                ++points;
            }
        }
    }
    EXPECT_EQ(points, 400u * 3u * 13u);
    EXPECT_GT(spilled, 100u);
}

TEST(SocEquivalence, StandaloneProfileMatchesVectorReference)
{
    Rng rng(77);
    for (int c = 0; c < 200; ++c) {
        const SocConfig soc = randomSoc(rng, 3, c % 4 == 0,
                                        AllocationPolicy::FairWaterFill);
        const ExecutionModel model(soc.memory);
        const SharedMemorySystem mem(soc.memory);
        for (const PuParams &pu : soc.pus) {
            const KernelProfile k = randomKernel(rng);
            const double want = refRate(mem, pu, k, 0.0, 0.0);
            ASSERT_TRUE(bitEqual(want, model.standalone(pu, k).rate))
                << "soc " << c << " " << pu.name;
        }
    }
}

TEST(SocEquivalence, WaterFillMatchesFullBisection)
{
    Rng rng(99);
    std::size_t saturated = 0;
    for (int c = 0; c < 2000; ++c) {
        MemoryParams params;
        params.peakBandwidth = rng.uniform(20.0, 200.0);
        const SharedMemorySystem mem(params);
        const std::size_t n = 1 + rng.below(20);
        std::vector<BandwidthDemand> demands;
        for (std::size_t i = 0; i < n; ++i) {
            BandwidthDemand d;
            d.demand = rng.chance(0.1) ? 0.0 : rng.uniform(0.0, 150.0);
            d.locality = rng.uniform(0.2, 1.0);
            d.weight = rng.chance(0.1) ? 0.0 : rng.uniform(0.1, 3.0);
            demands.push_back(d);
        }
        const AllocationResult res = mem.allocate(demands);
        const std::vector<GBps> want =
            refWaterFill(demands, mem.effectiveBandwidth(demands));
        ASSERT_EQ(res.grants.size(), want.size());
        ASSERT_EQ(std::memcmp(res.grants.data(), want.data(),
                              want.size() * sizeof(GBps)),
                  0)
            << "case " << c << " with " << n << " demands";
        double total = 0.0;
        for (const auto &d : demands)
            total += d.demand;
        if (total > res.effectiveBandwidth)
            ++saturated;
    }
    // Most cases exercise the bisection, not the all-satisfied exit.
    EXPECT_GT(saturated, 1000u);
}

TEST(SocEquivalence, CalibratorMatchesFullBisection)
{
    Rng rng(5);
    std::vector<SocConfig> socs{xavierLike(), snapdragonLike()};
    for (int c = 0; c < 40; ++c)
        socs.push_back(randomSoc(rng, 3, c % 5 == 0,
                                 AllocationPolicy::FairWaterFill));
    std::size_t clipped = 0;
    for (const SocConfig &soc : socs) {
        const ExecutionModel model(soc.memory);
        const SharedMemorySystem mem(soc.memory);
        for (const PuParams &pu : soc.pus) {
            for (int t = 0; t < 25; ++t) {
                const GBps target =
                    rng.uniform(0.01, 1.2) * pu.drawBandwidth();
                const double locality = rng.uniform(0.3, 1.0);
                const double want =
                    refCalibratorIntensity(mem, pu, target, locality);
                const double got =
                    calib::makeCalibrator(model, pu, target, locality)
                        .intensity;
                ASSERT_TRUE(bitEqual(want, got))
                    << soc.name << " " << pu.name << " target " << target
                    << ": " << want << " vs " << got;
                if (want == 1e-4)
                    ++clipped;
            }
        }
    }
    // Both the clipped exit and the bisection are covered.
    EXPECT_GT(clipped, 0u);
    EXPECT_LT(clipped, socs.size() * 3u * 25u / 2u);
}

} // namespace
} // namespace pccs::soc

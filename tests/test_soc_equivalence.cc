/**
 * @file
 * Bit-exactness of the allocation-free SoC evaluation path.
 *
 * The kernel x pressure grid (SocSimulator::relativeSpeedGrid) and
 * its 1x1 case relativeSpeedUnderPressure, the water-fill allocator
 * and the calibrator bisection all stop their bisections at a fixed
 * point and build demand lists in stack buffers. Each is compared bitwise (memcmp) against a test-local
 * reference that composes vectors and runs every bisection step: the
 * straightforward form of the same model. Randomized SoCs span 1 to 20
 * PUs, so demand lists both fit the inline buffer and spill to the
 * heap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
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

TEST(SocEquivalence, GridMatchesPerPointAndVectorReference)
{
    Rng rng(4242);
    std::size_t cells = 0;
    std::size_t spilled = 0;
    std::size_t locality_changes = 0;
    for (int c = 0; c < 200; ++c) {
        const std::size_t n = 1 + static_cast<std::size_t>(c) % 20;
        const AllocationPolicy policy =
            c % 2 == 0 ? AllocationPolicy::FairWaterFill
                       : AllocationPolicy::Proportional;
        const SocConfig soc = randomSoc(rng, n, c % 3 == 0, policy);
        const SocSimulator sim(soc);
        const SharedMemorySystem mem(soc.memory);
        if (n > inlineDemands)
            ++spilled;

        // Kernels in runs that share a locality, so the hoisted rate
        // terms are both reused and recomputed mid-grid.
        std::vector<KernelProfile> kernels;
        const std::size_t rows = 1 + rng.below(7);
        for (std::size_t i = 0; i < rows; ++i) {
            KernelProfile k = randomKernel(rng);
            if (i > 0 && rng.chance(0.5))
                k.locality = kernels.back().locality;
            else if (i > 0)
                ++locality_changes;
            kernels.push_back(k);
        }
        // A ladder from 0 (no external demand) to saturation.
        std::vector<GBps> ladder{0.0};
        const std::size_t cols = 1 + rng.below(12);
        for (std::size_t j = 1; j < cols; ++j)
            ladder.push_back(rng.uniform(0.0, 3.0) *
                             soc.memory.peakBandwidth);

        const std::size_t pu = rng.below(n);
        std::vector<double> grid(rows * cols, -1.0);
        sim.relativeSpeedGrid(pu, kernels, ladder, grid);
        for (std::size_t i = 0; i < rows; ++i) {
            for (std::size_t j = 0; j < cols; ++j) {
                const double got = grid[i * cols + j];
                const double point =
                    sim.relativeSpeedUnderPressure(pu, kernels[i], ladder[j]);
                const double want = refRelativeSpeed(
                    mem, soc.pus[pu], kernels[i],
                    refExternalDemands(soc, pu, ladder[j]));
                ASSERT_TRUE(bitEqual(got, point))
                    << "soc " << c << " (" << n << " PUs) cell " << i
                    << "," << j << ": " << got << " vs " << point;
                ASSERT_TRUE(bitEqual(got, want))
                    << "soc " << c << " cell " << i << "," << j;
                ++cells;
            }
        }
    }
    EXPECT_GT(cells, 1000u);
    EXPECT_GT(spilled, 50u);
    EXPECT_GT(locality_changes, 100u);
}

TEST(SocEquivalence, GridOfNoCellsWritesNothing)
{
    const SocSimulator sim(xavierLike());
    const std::vector<KernelProfile> kernels(2);
    const std::vector<GBps> ladder{10.0, 20.0};
    sim.relativeSpeedGrid(0, kernels, {}, {});
    sim.relativeSpeedGrid(0, {}, ladder, {});
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

// ---- Exact flip-point solves: every branch. -------------------------

/** Grants through the water-fill seam, with how the level was solved. */
std::vector<GBps>
seamWaterFill(const std::vector<BandwidthDemand> &demands, GBps capacity,
              BisectionTrace *trace)
{
    std::vector<GBps> grants(demands.size(), -1.0);
    SharedMemorySystem::waterFill(demands, capacity, grants, trace);
    return grants;
}

bool
grantsEqual(const std::vector<GBps> &a, const std::vector<GBps> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(GBps)) == 0;
}

/** Checks one demand set at `capacity`; returns whether it replayed. */
bool
expectWaterFillExact(const std::vector<BandwidthDemand> &demands,
                     GBps capacity, const std::string &what)
{
    BisectionTrace trace;
    const std::vector<GBps> got = seamWaterFill(demands, capacity, &trace);
    EXPECT_TRUE(grantsEqual(got, refWaterFill(demands, capacity)))
        << what << " at capacity " << capacity;
    return trace.replayed;
}

TEST(SocEquivalence, WaterFillWithoutFlipPoint)
{
    // Every weight zero: the served sum never reaches the capacity, so
    // the bisection climbs to the top of its bracket.
    const std::vector<BandwidthDemand> demands{
        {80.0, 0.9, 0.0}, {60.0, 0.9, 0.0}, {25.0, 0.9, 0.0}};
    EXPECT_FALSE(expectWaterFillExact(demands, 100.0, "all weights zero"));
    // Positive weights whose demands cannot cover the capacity.
    const std::vector<BandwidthDemand> short_of{
        {80.0, 0.9, 1.0}, {60.0, 0.9, 0.0}};
    expectWaterFillExact(short_of, 100.0, "weighted demand short");
}

TEST(SocEquivalence, WaterFillSomeWeightsZero)
{
    Rng rng(11);
    for (int c = 0; c < 500; ++c) {
        std::vector<BandwidthDemand> demands;
        for (int i = 0; i < 5; ++i)
            demands.push_back({rng.uniform(1.0, 100.0), 0.9,
                               i % 2 == 0 ? 0.0 : rng.uniform(0.2, 3.0)});
        expectWaterFillExact(demands, rng.uniform(10.0, 150.0),
                             "case " + std::to_string(c));
    }
}

TEST(SocEquivalence, WaterFillTooWideForDirectForm)
{
    // Tiny weights put max(d_i / w_i) far above the fill level, past
    // the direct form's 256x guard: the solve must replay the loop,
    // and both sides of that guard must match the full bisection.
    Rng rng(12);
    std::size_t replayed = 0;
    std::size_t direct = 0;
    for (int c = 0; c < 4000; ++c) {
        std::vector<BandwidthDemand> demands{
            {rng.uniform(10.0, 100.0), 0.9, rng.uniform(0.5, 2.0)},
            {rng.uniform(10.0, 100.0), 0.9, rng.uniform(0.5, 2.0)}};
        // hi / fill spread log-uniformly over 1 .. 2^16.
        const double ratio = std::exp2(rng.uniform(0.0, 16.0));
        demands.push_back({rng.uniform(50.0, 200.0), 0.9, 0.0});
        const GBps capacity = rng.uniform(5.0, 40.0);
        demands.back().weight =
            demands.back().demand / (ratio * capacity / 2.5);
        if (expectWaterFillExact(demands, capacity,
                                 "case " + std::to_string(c)))
            ++replayed;
        else
            ++direct;
    }
    EXPECT_GT(replayed, 1000u);
    EXPECT_GT(direct, 1000u);
}

TEST(SocEquivalence, WaterFillReplayLandsOnFlipPoint)
{
    // One source with hi = d and a capacity of d / 2^j: the served sum
    // first covers the capacity exactly at the j-th halving of the
    // bracket, so a replay midpoint equals the flip point itself.
    for (int j = 9; j <= 30; ++j) {
        const double d = 100.0;
        const std::vector<BandwidthDemand> demands{{d, 0.9, 1.0}};
        EXPECT_TRUE(expectWaterFillExact(demands, std::ldexp(d, -j),
                                         "j = " + std::to_string(j)));
    }
}

TEST(SocEquivalence, WaterFillSingleDemand)
{
    Rng rng(13);
    for (int c = 0; c < 500; ++c) {
        const std::vector<BandwidthDemand> demands{
            {rng.uniform(1.0, 200.0), 0.9, rng.uniform(0.1, 4.0)}};
        expectWaterFillExact(demands, rng.uniform(0.5, 1.0) *
                                          demands[0].demand,
                             "case " + std::to_string(c));
    }
}

TEST(SocEquivalence, WaterFillEqualRatios)
{
    Rng rng(14);
    for (int c = 0; c < 500; ++c) {
        const double ratio = rng.uniform(5.0, 80.0);
        std::vector<BandwidthDemand> demands;
        for (int i = 0; i < 4; ++i) {
            const double w = rng.uniform(0.2, 3.0);
            demands.push_back({ratio * w, 0.9, w});
        }
        double total = 0.0;
        for (const auto &d : demands)
            total += d.demand;
        expectWaterFillExact(demands, rng.uniform(0.2, 1.0) * total,
                             "case " + std::to_string(c));
    }
}

TEST(SocEquivalence, WaterFillCapacityAtPartialSum)
{
    // Capacities equal to the served sum at a breakpoint d_k / w_k,
    // where the slope of the served curve changes.
    const std::vector<BandwidthDemand> demands{
        {10.0, 0.9, 1.0}, {20.0, 0.9, 1.0}, {30.0, 0.9, 1.0},
        {12.0, 0.9, 0.5}, {45.0, 0.9, 1.5}};
    for (const auto &at : demands) {
        const double f = at.demand / at.weight;
        double capacity = 0.0;
        for (const auto &d : demands)
            capacity += std::min(d.demand, d.weight * f);
        expectWaterFillExact(demands, capacity, "breakpoint");
        expectWaterFillExact(demands, std::nextafter(capacity, 0.0),
                             "below breakpoint");
        expectWaterFillExact(demands, std::nextafter(capacity, 1e9),
                             "above breakpoint");
    }
}

TEST(SocEquivalence, WaterFillBeyondInlineDemands)
{
    Rng rng(15);
    for (int c = 0; c < 300; ++c) {
        std::vector<BandwidthDemand> demands;
        const std::size_t n = inlineDemands + 1 + rng.below(24);
        for (std::size_t i = 0; i < n; ++i)
            demands.push_back({rng.uniform(0.0, 40.0), 0.9,
                               rng.chance(0.1) ? 0.0
                                               : rng.uniform(0.1, 3.0)});
        expectWaterFillExact(demands, rng.uniform(20.0, 200.0),
                             "case " + std::to_string(c));
    }
}

void
expectCalibratorExact(const PuParams &pu, const MemoryParams &memory,
                      GBps target)
{
    const ExecutionModel model(memory);
    const double got = calib::makeCalibrator(model, pu, target).intensity;
    const double want =
        refCalibratorIntensity(SharedMemorySystem(memory), pu, target,
                               calib::calibratorLocality);
    EXPECT_TRUE(bitEqual(want, got))
        << pu.name << " target " << target << ": " << want << " vs "
        << got;
}

TEST(SocEquivalence, CalibratorFullOverlap)
{
    // Overlap 1: t_base = max(t_c, t_m), so demand is flat while
    // t_c < t_m and only falls once the kernel turns compute-bound.
    const SocConfig soc = xavierLike();
    for (PuParams pu : soc.pus) {
        pu.overlap = 1.0;
        for (double frac = 0.01; frac < 1.3; frac += 0.01)
            expectCalibratorExact(pu, soc.memory,
                                  frac * pu.drawBandwidth());
    }
}

TEST(SocEquivalence, CalibratorTargetsAtAndAboveDraw)
{
    for (const SocConfig &soc : {xavierLike(), snapdragonLike()}) {
        const ExecutionModel model(soc.memory);
        for (const PuParams &pu : soc.pus) {
            const GBps draw = pu.drawBandwidth();
            const GBps most = model.rateTerms(pu, calib::calibratorLocality)
                                  .rate(1e-4, 0.0, 0.0) /
                              bytesPerGB;
            for (GBps target : {draw, 1.5 * draw, 1e6, most,
                                std::nextafter(most, 0.0),
                                std::nextafter(most, 1e9)})
                expectCalibratorExact(pu, soc.memory, target);
        }
    }
}

TEST(SocEquivalence, CalibratorTinyTargets)
{
    // Targets below the demand of the most compute-bound calibrator:
    // the bisection climbs to the top of its bracket.
    for (const SocConfig &soc : {xavierLike(), snapdragonLike()})
        for (const PuParams &pu : soc.pus)
            for (GBps target : {1e-300, 1e-12, 1e-6, 1e-3, 0.05})
                expectCalibratorExact(pu, soc.memory, target);
}

// The shared helper, driven with a known flip point F: upper(x) is
// x >= F, so every branch can be forced and checked against the loop.

template <Midpoint M>
double
refMid(double lo, double hi)
{
    return M == Midpoint::Arithmetic ? 0.5 * (lo + hi) : std::sqrt(lo * hi);
}

template <Midpoint M>
double
refBisection(double lo, double hi, int steps, double flip)
{
    for (int i = 0; i < steps; ++i) {
        const double m = refMid<M>(lo, hi);
        if (m >= flip)
            hi = m;
        else
            lo = m;
    }
    return refMid<M>(lo, hi);
}

/** Random flip points over a bracket; counts the replayed solves. */
template <Midpoint M>
std::size_t
checkSolves(double lo, double hi, int steps, int cases, std::uint64_t seed)
{
    Rng rng(seed);
    std::size_t replayed = 0;
    for (int c = 0; c < cases; ++c) {
        // Log-uniform flip points, plus the bracket ends.
        double flip = std::exp(rng.uniform(std::log(std::max(lo, 1e-12)),
                                           std::log(hi)));
        if (c % 50 == 0)
            flip = hi;
        if (c % 50 == 1)
            flip = std::nextafter(lo, hi);
        flip = std::clamp(flip, std::nextafter(lo, hi), hi);
        // A seed thousands of ulps off on either side.
        const double seed_at = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(flip) +
            static_cast<std::uint64_t>(rng.below(6000)) - 3000);
        BisectionTrace trace;
        const double got = solveBisection<M>(
            lo, hi, steps, seed_at, [flip](double x) { return x >= flip; },
            &trace);
        const double want = refBisection<M>(lo, hi, steps, flip);
        EXPECT_TRUE(bitEqual(want, got))
            << "lo " << lo << " hi " << hi << " steps " << steps
            << " flip " << flip << ": " << want << " vs " << got;
        if (trace.replayed)
            ++replayed;
    }
    return replayed;
}

TEST(SocEquivalence, BisectionSolveDirectAndReplayBranches)
{
    // Arithmetic from 0 with the full 64 steps: direct where the top is
    // within 256x the flip point, replayed beyond it.
    const std::size_t arith = checkSolves<Midpoint::Arithmetic>(
        0.0, 1e6, 64, 4000, 1);
    EXPECT_GT(arith, 100u);
    EXPECT_LT(arith, 4000u);
    // A bracket not starting at 0, or too few steps: always replayed.
    EXPECT_EQ(checkSolves<Midpoint::Arithmetic>(1.0, 1e3, 64, 500, 2),
              500u);
    EXPECT_EQ(checkSolves<Midpoint::Arithmetic>(0.0, 100.0, 40, 500, 3),
              500u);
    // Geometric over the calibrator's bracket: always direct with 80
    // steps, replayed with 40 (which does not converge).
    EXPECT_EQ(checkSolves<Midpoint::Geometric>(1e-4, 1e5, 80, 2000, 4),
              0u);
    EXPECT_EQ(checkSolves<Midpoint::Geometric>(1e-4, 1e5, 40, 500, 5),
              500u);
    // Past the geometric range guard: replayed.
    EXPECT_EQ(checkSolves<Midpoint::Geometric>(0x1p-600, 1.0, 80, 500, 6),
              500u);
}

TEST(SocEquivalence, FlipPointCostGrowsWithSeedError)
{
    const double flip = 37.25;
    const auto upper = [flip](double x) { return x >= flip; };
    unsigned near_calls = 0;
    EXPECT_EQ(flipPoint(0.0, 1e3, flip, upper, &near_calls), flip);
    EXPECT_LE(near_calls, 2u);
    for (std::int64_t off : {-5000, -1, 1, 5000}) {
        unsigned calls = 0;
        const double seed = std::bit_cast<double>(
            std::bit_cast<std::uint64_t>(flip) +
            static_cast<std::uint64_t>(off));
        EXPECT_EQ(flipPoint(0.0, 1e3, seed, upper, &calls), flip);
        EXPECT_GE(calls, near_calls);
        if (off == 5000 || off == -5000) {
            EXPECT_GT(calls, 10u);
        }
    }
    // Seeds outside the bracket, and no flip point inside it.
    unsigned calls = 0;
    EXPECT_EQ(flipPoint(0.0, 1e3, -1.0, upper, &calls), flip);
    EXPECT_EQ(flipPoint(0.0, 1e3, 1e9, upper, &calls), flip);
    EXPECT_EQ(flipPoint(0.0, 1e3, 5.0, [](double) { return false; }),
              1e3);
    EXPECT_EQ(flipPoint(0.0, 1e3, 5.0, [](double) { return true; }),
              std::bit_cast<double>(std::uint64_t{1}));
}

} // namespace
} // namespace pccs::soc

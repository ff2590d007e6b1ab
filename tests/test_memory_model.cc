/**
 * @file
 * Unit and property tests for the SoC shared-memory contention model
 * (effective bandwidth + fairness allocation).
 */

#include <gtest/gtest.h>

#include <vector>

#include "soc/memory_model.hh"

namespace pccs::soc {
namespace {

/** Demand lists are spans; braced lists need a named container. */
using Demands = std::vector<BandwidthDemand>;

MemoryParams
xavierMem()
{
    MemoryParams m;
    m.peakBandwidth = 137.0;
    return m;
}

TEST(EffectiveBandwidth, SingleStreamingSourceNearBase)
{
    SharedMemorySystem mem(xavierMem());
    const GBps eff = mem.effectiveBandwidth(Demands{{100.0, 0.97, 1.0}});
    EXPECT_NEAR(eff, 137.0 * 0.93, 2.0);
}

TEST(EffectiveBandwidth, IdleSystemIsBase)
{
    SharedMemorySystem mem(xavierMem());
    EXPECT_DOUBLE_EQ(mem.effectiveBandwidth({}),
                     137.0 * xavierMem().baseEfficiency);
}

TEST(EffectiveBandwidth, MixingDegrades)
{
    SharedMemorySystem mem(xavierMem());
    const GBps solo = mem.effectiveBandwidth(Demands{{120.0, 0.97, 1.0}});
    const GBps duo = mem.effectiveBandwidth(
        Demands{{60.0, 0.97, 1.0}, {60.0, 0.97, 1.0}});
    EXPECT_LT(duo, solo - 1.0);
}

TEST(EffectiveBandwidth, MoreSourcesDegradeMore)
{
    SharedMemorySystem mem(xavierMem());
    const GBps duo = mem.effectiveBandwidth(
        Demands{{70.0, 0.97, 1.0}, {70.0, 0.97, 1.0}});
    const GBps trio = mem.effectiveBandwidth(
        Demands{{47.0, 0.97, 1.0}, {47.0, 0.97, 1.0}, {46.0, 0.97, 1.0}});
    EXPECT_LT(trio, duo);
}

TEST(EffectiveBandwidth, PoorLocalityDegrades)
{
    SharedMemorySystem mem(xavierMem());
    const GBps good = mem.effectiveBandwidth(Demands{{80.0, 0.97, 1.0}});
    const GBps bad = mem.effectiveBandwidth(Demands{{80.0, 0.50, 1.0}});
    EXPECT_LT(bad, good - 5.0);
}

TEST(EffectiveBandwidth, FloorHolds)
{
    SharedMemorySystem mem(xavierMem());
    std::vector<BandwidthDemand> many;
    for (int i = 0; i < 16; ++i)
        many.push_back({50.0, 0.1, 1.0});
    EXPECT_GE(mem.effectiveBandwidth(many),
              137.0 * xavierMem().minEfficiency - 1e-9);
}

TEST(EffectiveBandwidth, DemandSaturationFreezesDegradation)
{
    // Past full utilization, more *demand* must not further reduce the
    // effective bandwidth (this produces the flat curve tails).
    SharedMemorySystem mem(xavierMem());
    const GBps at_sat = mem.effectiveBandwidth(
        Demands{{70.0, 0.97, 1.0}, {70.0, 0.97, 1.0}});
    const GBps beyond = mem.effectiveBandwidth(
        Demands{{70.0, 0.97, 1.0}, {500.0, 0.97, 1.0}});
    // Not equal (shares differ) but the heavier case cannot collapse.
    EXPECT_GT(beyond, at_sat * 0.9);
}

TEST(WaterFill, AllMetUnderCapacity)
{
    SharedMemorySystem mem(xavierMem());
    const auto res =
        mem.allocate(Demands{{30.0, 0.97, 1.0}, {40.0, 0.97, 1.0}});
    EXPECT_DOUBLE_EQ(res.grants[0], 30.0);
    EXPECT_DOUBLE_EQ(res.grants[1], 40.0);
}

TEST(WaterFill, SmallDemandProtected)
{
    SharedMemorySystem mem(xavierMem());
    const auto res =
        mem.allocate(Demands{{10.0, 0.97, 1.0}, {500.0, 0.97, 1.0}});
    EXPECT_NEAR(res.grants[0], 10.0, 1e-6);
    EXPECT_LT(res.grants[1], 500.0);
}

TEST(WaterFill, EqualDemandsSplitEqually)
{
    SharedMemorySystem mem(xavierMem());
    const auto res =
        mem.allocate(Demands{{200.0, 0.97, 1.0}, {200.0, 0.97, 1.0}});
    EXPECT_NEAR(res.grants[0], res.grants[1], 1e-6);
    EXPECT_NEAR(res.grants[0] + res.grants[1], res.effectiveBandwidth,
                1e-6);
}

TEST(WaterFill, WeightsBiasShares)
{
    SharedMemorySystem mem(xavierMem());
    const auto res =
        mem.allocate(Demands{{200.0, 0.97, 2.0}, {200.0, 0.97, 1.0}});
    EXPECT_NEAR(res.grants[0], 2.0 * res.grants[1], 1e-6);
}

TEST(WaterFill, LoadRatioSaturatesAtOne)
{
    SharedMemorySystem mem(xavierMem());
    const auto light = mem.allocate(Demands{{30.0, 0.97, 1.0}});
    EXPECT_LT(light.loadRatio, 1.0);
    const auto heavy =
        mem.allocate(Demands{{300.0, 0.97, 1.0}, {300.0, 0.97, 1.0}});
    EXPECT_NEAR(heavy.loadRatio, 1.0, 1e-9);
}

TEST(Proportional, NoReductionBelowPeak)
{
    MemoryParams m = xavierMem();
    m.policy = AllocationPolicy::Proportional;
    SharedMemorySystem mem(m);
    const auto res =
        mem.allocate(Demands{{60.0, 0.97, 1.0}, {70.0, 0.97, 1.0}});
    // The Gables assumption: total below the *nominal* peak -> all met.
    EXPECT_DOUBLE_EQ(res.grants[0], 60.0);
    EXPECT_DOUBLE_EQ(res.grants[1], 70.0);
}

TEST(Proportional, ProRatedAbovePeak)
{
    MemoryParams m = xavierMem();
    m.policy = AllocationPolicy::Proportional;
    SharedMemorySystem mem(m);
    const auto res =
        mem.allocate(Demands{{100.0, 0.97, 1.0}, {100.0, 0.97, 1.0}});
    EXPECT_NEAR(res.grants[0], 100.0 * 137.0 / 200.0, 1e-9);
    EXPECT_NEAR(res.grants[1], res.grants[0], 1e-9);
}

TEST(MemoryParams, ScaledChangesOnlyPeak)
{
    const MemoryParams m = xavierMem();
    const MemoryParams s = m.scaled(0.5);
    EXPECT_DOUBLE_EQ(s.peakBandwidth, m.peakBandwidth * 0.5);
    EXPECT_DOUBLE_EQ(s.baseEfficiency, m.baseEfficiency);
    EXPECT_DOUBLE_EQ(s.mixPenalty, m.mixPenalty);
}

/** Water-filling conservation property over many demand patterns. */
class WaterFillProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(WaterFillProperty, ConservationAndCaps)
{
    const auto [n_sources, seed] = GetParam();
    SharedMemorySystem mem(xavierMem());
    std::vector<BandwidthDemand> demands;
    unsigned long long s = seed + 1;
    auto next = [&s]() {
        s = s * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(s >> 11) / (1ull << 53);
    };
    for (int i = 0; i < n_sources; ++i)
        demands.push_back(
            {next() * 150.0, 0.5 + 0.5 * next(), 0.5 + 2.0 * next()});

    const auto res = mem.allocate(demands);
    double total_demand = 0.0, total_grant = 0.0;
    for (std::size_t i = 0; i < demands.size(); ++i) {
        // No source ever gets more than it asked for.
        EXPECT_LE(res.grants[i], demands[i].demand + 1e-9);
        EXPECT_GE(res.grants[i], 0.0);
        total_demand += demands[i].demand;
        total_grant += res.grants[i];
    }
    // Grants sum to min(total demand, effective bandwidth).
    EXPECT_NEAR(total_grant,
                std::min(total_demand, res.effectiveBandwidth), 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, WaterFillProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 5, 8),
                       ::testing::Values(11, 22, 33)));

} // namespace
} // namespace pccs::soc

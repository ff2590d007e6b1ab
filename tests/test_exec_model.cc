/**
 * @file
 * Unit and property tests for the PU execution model, including the
 * three-region behavior the paper's Figure 3 documents.
 */

#include <gtest/gtest.h>

#include "calib/calibrator.hh"
#include "soc/exec_model.hh"
#include "soc/soc_config.hh"

namespace pccs::soc {
namespace {

class ExecModelTest : public ::testing::Test
{
  protected:
    SocConfig soc = xavierLike();
    ExecutionModel model{soc.memory};

    KernelProfile
    kernelWithDemand(PuKind kind, GBps target)
    {
        return calib::makeCalibrator(model, soc.pu(kind), target);
    }

    double
    rs(PuKind kind, const KernelProfile &k, GBps external)
    {
        const int idx = soc.puIndex(kind);
        const auto ext =
            externalDemands(soc, static_cast<std::size_t>(idx), external);
        return model.relativeSpeed(soc.pu(kind), k, ext);
    }
};

TEST_F(ExecModelTest, StandaloneDemandsMatchFigure2)
{
    // Fig. 2 caption: requested BW 93 (CPU), 127 (GPU), 30 (DLA).
    const auto cpu = model.standalone(soc.pu(PuKind::Cpu),
                                      kernelWithDemand(PuKind::Cpu, 999));
    const auto gpu = model.standalone(soc.pu(PuKind::Gpu),
                                      kernelWithDemand(PuKind::Gpu, 999));
    const auto dla = model.standalone(soc.pu(PuKind::Dla),
                                      kernelWithDemand(PuKind::Dla, 999));
    EXPECT_NEAR(cpu.bandwidthDemand, 93.0, 3.0);
    EXPECT_NEAR(gpu.bandwidthDemand, 127.0, 3.0);
    EXPECT_NEAR(dla.bandwidthDemand, 30.0, 2.0);
}

TEST_F(ExecModelTest, StandaloneSecondsConsistent)
{
    KernelProfile k = kernelWithDemand(PuKind::Gpu, 60.0);
    k.workBytes = 3e9;
    const auto prof = model.standalone(soc.pu(PuKind::Gpu), k);
    EXPECT_NEAR(prof.seconds, 3e9 / prof.rate, 1e-12);
    EXPECT_NEAR(prof.bandwidthDemand, prof.rate / 1e9, 1e-12);
}

TEST_F(ExecModelTest, NoExternalMeansFullSpeed)
{
    for (GBps x : {10.0, 40.0, 80.0, 120.0}) {
        const KernelProfile k = kernelWithDemand(PuKind::Gpu, x);
        EXPECT_NEAR(rs(PuKind::Gpu, k, 0.0), 100.0, 1e-9) << x;
    }
}

TEST_F(ExecModelTest, RelativeSpeedMonotoneInExternalDemand)
{
    // Tolerance note: at the exact saturation boundary the efficiency
    // model can produce sub-0.01%-point wiggles (the victim's share of
    // a slightly smaller effective pie); anything beyond measurement-
    // noise scale would be a real monotonicity bug.
    for (GBps x : {15.0, 60.0, 110.0}) {
        const KernelProfile k = kernelWithDemand(PuKind::Gpu, x);
        double prev = 101.0;
        for (GBps y = 0.0; y <= 100.0; y += 5.0) {
            const double v = rs(PuKind::Gpu, k, y);
            EXPECT_LE(v, prev + 0.05) << "x=" << x << " y=" << y;
            prev = v;
        }
    }
}

TEST_F(ExecModelTest, MinorKernelBarelySlows)
{
    const KernelProfile k = kernelWithDemand(PuKind::Gpu, 15.0);
    EXPECT_GT(rs(PuKind::Gpu, k, 100.0), 90.0);
}

TEST_F(ExecModelTest, MediumKernelShowsThreeStages)
{
    // Fig. 3(b): flat start, steep middle, flat tail.
    const KernelProfile k = kernelWithDemand(PuKind::Gpu, 70.0);
    const double early = rs(PuKind::Gpu, k, 10.0) -
                         rs(PuKind::Gpu, k, 25.0);
    const double mid = rs(PuKind::Gpu, k, 45.0) -
                       rs(PuKind::Gpu, k, 60.0);
    const double late = rs(PuKind::Gpu, k, 85.0) -
                        rs(PuKind::Gpu, k, 100.0);
    EXPECT_GT(mid, 3.0 * early) << "drop phase must be much steeper";
    EXPECT_GT(mid, 3.0 * late) << "tail must flatten";
}

TEST_F(ExecModelTest, IntensiveKernelDropsImmediately)
{
    // Fig. 3(c): high-demand kernels slow down under small pressure.
    const KernelProfile k = kernelWithDemand(PuKind::Gpu, 123.0);
    EXPECT_LT(rs(PuKind::Gpu, k, 20.0), 90.0);
}

TEST_F(ExecModelTest, ContentionBeforeNominalSaturation)
{
    // The Figure 2 headline: slowdown appears even when
    // x + y < peak bandwidth (137).
    const KernelProfile k = kernelWithDemand(PuKind::Gpu, 76.0);
    const double v = rs(PuKind::Gpu, k, 50.0); // 76 + 50 < 137
    EXPECT_LT(v, 95.0);
}

TEST_F(ExecModelTest, DlaSlowsEvenWithLowDemand)
{
    // The DLA has no minor contention region (Table 7): even a
    // low-bandwidth kernel slows notably under pressure.
    const KernelProfile k = kernelWithDemand(PuKind::Dla, 5.0);
    EXPECT_LT(rs(PuKind::Dla, k, 80.0), 88.0);
}

TEST_F(ExecModelTest, CpuVictimGentlerThanGpuVictim)
{
    // Paper Sec. 4.2: programs on the CPU see smaller reductions than
    // programs on the GPU.
    const KernelProfile kc = kernelWithDemand(PuKind::Cpu, 55.0);
    const KernelProfile kg = kernelWithDemand(PuKind::Gpu, 80.0);
    EXPECT_GT(rs(PuKind::Cpu, kc, 90.0), rs(PuKind::Gpu, kg, 90.0));
}

TEST_F(ExecModelTest, CorunMatchesRelativeSpeed)
{
    // corun() and relativeSpeed() must agree for a 2-PU scenario.
    const KernelProfile kg = kernelWithDemand(PuKind::Gpu, 70.0);
    const KernelProfile kc = kernelWithDemand(PuKind::Cpu, 50.0);
    std::vector<PuParams> pus{soc.pu(PuKind::Gpu), soc.pu(PuKind::Cpu)};
    std::vector<KernelProfile> ks{kg, kc};
    const CorunRates rates = model.corun(pus, ks);
    const auto solo_g = model.standalone(pus[0], kg);
    const double rs_corun = 100.0 * rates.rates[0] / solo_g.rate;

    const auto solo_c = model.standalone(pus[1], kc);
    const double rs_direct = model.relativeSpeed(
        pus[0], kg,
        std::vector<BandwidthDemand>{{solo_c.bandwidthDemand, kc.locality,
          pus[1].fairShareWeight}});
    EXPECT_NEAR(rs_corun, rs_direct, 1e-6);
}

TEST_F(ExecModelTest, GrantsNeverExceedDemands)
{
    const KernelProfile kg = kernelWithDemand(PuKind::Gpu, 110.0);
    const KernelProfile kc = kernelWithDemand(PuKind::Cpu, 80.0);
    const KernelProfile kd = kernelWithDemand(PuKind::Dla, 25.0);
    std::vector<PuParams> pus{soc.pu(PuKind::Gpu), soc.pu(PuKind::Cpu),
                              soc.pu(PuKind::Dla)};
    std::vector<KernelProfile> ks{kg, kc, kd};
    const CorunRates rates = model.corun(pus, ks);
    for (std::size_t i = 0; i < pus.size(); ++i) {
        const auto solo = model.standalone(pus[i], ks[i]);
        EXPECT_LE(rates.allocation.grants[i],
                  solo.bandwidthDemand + 1e-6);
        EXPECT_LE(rates.rates[i], solo.rate * (1.0 + 1e-9));
    }
}

TEST_F(ExecModelTest, FrequencyScalingKneeForMemoryBoundKernel)
{
    // The Figure 15 observation: a memory-bound GPU kernel keeps its
    // standalone speed until the clock drops below the knee
    // (~900 MHz on Xavier), then slows roughly linearly.
    const KernelProfile k = kernelWithDemand(PuKind::Gpu, 999.0);
    const PuParams &gpu = soc.pu(PuKind::Gpu);
    const double full =
        model.standalone(gpu.atFrequency(1377.0), k).rate;
    const double at_950 =
        model.standalone(gpu.atFrequency(950.0), k).rate;
    const double at_700 =
        model.standalone(gpu.atFrequency(700.0), k).rate;
    EXPECT_NEAR(at_950 / full, 1.0, 0.03) << "above the knee";
    EXPECT_LT(at_700 / full, 0.85) << "below the knee";
}

TEST_F(ExecModelTest, ComputeBoundKernelScalesWithFrequency)
{
    const KernelProfile k = kernelWithDemand(PuKind::Gpu, 15.0);
    const PuParams &gpu = soc.pu(PuKind::Gpu);
    const double full =
        model.standalone(gpu.atFrequency(1377.0), k).rate;
    const double half =
        model.standalone(gpu.atFrequency(688.5), k).rate;
    EXPECT_NEAR(half / full, 0.5, 0.05);
}

/** Relative speed must lie in (0, 100] across a broad random sweep. */
class RsBounds
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(RsBounds, AlwaysInRange)
{
    const auto [pu_idx, target] = GetParam();
    SocConfig soc = xavierLike();
    ExecutionModel model(soc.memory);
    const KernelProfile k = calib::makeCalibrator(
        model, soc.pus[pu_idx], target);
    for (GBps y = 0.0; y <= 120.0; y += 7.0) {
        const auto ext = externalDemands(soc, pu_idx, y);
        const double v = model.relativeSpeed(soc.pus[pu_idx], k, ext);
        EXPECT_GT(v, 0.0);
        EXPECT_LE(v, 100.0 + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, RsBounds,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(5.0, 20.0, 60.0, 110.0)));

} // namespace
} // namespace pccs::soc

/**
 * @file
 * Tests for the calibrator kernels and the calibration sweep
 * (the processor-centric model-construction inputs of Section 3.2).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "calib/calibrator.hh"
#include "runner/sweep_engine.hh"

namespace pccs::calib {
namespace {

class CalibratorTest : public ::testing::Test
{
  protected:
    soc::SocConfig soc = soc::xavierLike();
    soc::ExecutionModel model{soc.memory};
};

/** Calibrators must hit their bandwidth targets across PUs. */
class CalibratorTargets
    : public ::testing::TestWithParam<std::tuple<int, double>>
{
};

TEST_P(CalibratorTargets, HitsTarget)
{
    const auto [pu_idx, frac] = GetParam();
    const soc::SocConfig soc = soc::xavierLike();
    const soc::ExecutionModel model(soc.memory);
    const soc::PuParams &pu = soc.pus[pu_idx];
    const GBps target = frac * pu.drawBandwidth();
    const soc::KernelProfile k = makeCalibrator(model, pu, target);
    const GBps achieved = model.standalone(pu, k).bandwidthDemand;
    EXPECT_NEAR(achieved, target, 0.02 * target + 0.1)
        << pu.name << " target " << target;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, CalibratorTargets,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(0.1, 0.3, 0.5, 0.7, 0.9)));

TEST_F(CalibratorTest, UnreachableTargetClipsToMaxStream)
{
    const soc::PuParams &dla = soc.pu(soc::PuKind::Dla);
    const soc::KernelProfile k = makeCalibrator(model, dla, 500.0);
    const GBps achieved = model.standalone(dla, k).bandwidthDemand;
    EXPECT_NEAR(achieved, dla.drawBandwidth(), 1.0);
}

TEST_F(CalibratorTest, IntensityMonotoneWithTarget)
{
    const soc::PuParams &gpu = soc.pu(soc::PuKind::Gpu);
    const auto low = makeCalibrator(model, gpu, 20.0);
    const auto high = makeCalibrator(model, gpu, 100.0);
    // Lower bandwidth demand = more compute per byte.
    EXPECT_GT(low.intensity, high.intensity);
}

TEST_F(CalibratorTest, LocalityCarriesThrough)
{
    const soc::PuParams &gpu = soc.pu(soc::PuKind::Gpu);
    const auto k = makeCalibrator(model, gpu, 50.0, 0.8);
    EXPECT_DOUBLE_EQ(k.locality, 0.8);
}

TEST_F(CalibratorTest, MatrixShapeAndAxes)
{
    const soc::SocSimulator sim(soc);
    SweepSpec spec;
    spec.numKernels = 6;
    spec.numExternal = 5;
    const CalibrationMatrix m = calibrate(sim, 1, spec);
    EXPECT_EQ(m.numKernels(), 6u);
    EXPECT_EQ(m.numExternal(), 5u);
    EXPECT_EQ(m.rela.size(), 6u);
    EXPECT_EQ(m.rela[0].size(), 5u);
    // Axes ascending; external axis starts above zero.
    EXPECT_GT(m.externalBw.front(), 0.0);
    for (std::size_t j = 1; j < m.numExternal(); ++j)
        EXPECT_GT(m.externalBw[j], m.externalBw[j - 1]);
    for (std::size_t i = 1; i < m.numKernels(); ++i)
        EXPECT_GE(m.standaloneBw[i], m.standaloneBw[i - 1] - 1e-9);
}

TEST_F(CalibratorTest, MatrixValuesAreRelativeSpeeds)
{
    const soc::SocSimulator sim(soc);
    SweepSpec spec;
    spec.numKernels = 5;
    spec.numExternal = 5;
    const CalibrationMatrix m = calibrate(sim, 0, spec);
    for (const auto &row : m.rela) {
        for (double v : row) {
            EXPECT_GT(v, 0.0);
            EXPECT_LE(v, 100.0 + 1e-9);
        }
    }
}

TEST_F(CalibratorTest, RowsNonIncreasingInExternalDemand)
{
    const soc::SocSimulator sim(soc);
    const CalibrationMatrix m = calibrate(sim, 1);
    for (const auto &row : m.rela)
        for (std::size_t j = 1; j < row.size(); ++j)
            EXPECT_LE(row[j], row[j - 1] + 0.2);
}

TEST_F(CalibratorTest, LargestExternalHurtsBiggerKernelsMore)
{
    const soc::SocSimulator sim(soc);
    const CalibrationMatrix m = calibrate(sim, 1);
    const std::size_t last = m.numExternal() - 1;
    // The most bandwidth-hungry calibrator must lose more speed than
    // the smallest one at the largest external pressure.
    EXPECT_LT(m.rela[m.numKernels() - 1][last], m.rela[0][last] - 5.0);
}

TEST_F(CalibratorTest, ExternalMaxFractionRespected)
{
    const soc::SocSimulator sim(soc);
    SweepSpec spec;
    spec.maxExternalFraction = 0.5;
    const CalibrationMatrix m = calibrate(sim, 0, spec);
    EXPECT_NEAR(m.externalBw.back(),
                0.5 * soc.memory.peakBandwidth, 1e-9);
}

TEST_F(CalibratorTest, TooSmallSweepDies)
{
    const soc::SocSimulator sim(soc);
    SweepSpec spec;
    spec.numKernels = 1;
    EXPECT_DEATH(calibrate(sim, 0, spec), "2x2");
}

McSweepSpec
smallMcSpec()
{
    // A deliberately small sweep: 2 MCs x 1 channel, short windows,
    // few points — enough to exercise shape, monotony, and run-mode
    // invariance without dominating the test suite's runtime.
    McSweepSpec spec;
    spec.perMcConfig.channels = 1;
    spec.perMcConfig.requestBufferEntries = 64;
    spec.numKernels = 3;
    spec.numExternal = 2;
    spec.warmup = 3000;
    spec.window = 12000;
    return spec;
}

TEST(CalibrateMultiMc, ShapeAndSaneValues)
{
    const CalibrationMatrix m = calibrateMultiMc(smallMcSpec());
    ASSERT_EQ(m.numKernels(), 3u);
    ASSERT_EQ(m.numExternal(), 2u);
    for (std::size_t i = 0; i < m.numKernels(); ++i) {
        EXPECT_GT(m.standaloneBw[i], 0.0);
        if (i) {
            EXPECT_GT(m.standaloneBw[i], m.standaloneBw[i - 1]);
        }
        for (double r : m.rela[i]) {
            EXPECT_GT(r, 0.0);
            EXPECT_LT(r, 110.0);
        }
    }
    EXPECT_GT(m.externalBw[1], m.externalBw[0]);
}

TEST(CalibrateMultiMc, RunModesAgreeBitExactly)
{
    // The sweep is a pure function of the spec: every run mode, on a
    // serial engine or a pool, must produce the identical matrix,
    // doubles included.
    runner::SweepEngine serial(1);
    runner::SweepEngine pool(4);
    McSweepSpec spec = smallMcSpec();
    spec.runMode = dram::RunMode::Reference;
    const CalibrationMatrix ref = calibrateMultiMc(spec, &serial);
    for (dram::RunMode mode :
         {dram::RunMode::Reference, dram::RunMode::EventDriven}) {
        for (runner::SweepEngine *eng : {&serial, &pool}) {
            if (mode == dram::RunMode::Reference && eng == &serial)
                continue; // the reference itself
            SCOPED_TRACE(testing::Message()
                         << dram::runModeName(mode)
                         << " jobs=" << eng->jobs());
            spec.runMode = mode;
            const CalibrationMatrix got = calibrateMultiMc(spec, eng);
            ASSERT_EQ(got.numKernels(), ref.numKernels());
            ASSERT_EQ(got.numExternal(), ref.numExternal());
            for (std::size_t i = 0; i < ref.numKernels(); ++i) {
                EXPECT_EQ(got.standaloneBw[i], ref.standaloneBw[i]);
                for (std::size_t j = 0; j < ref.numExternal(); ++j)
                    EXPECT_EQ(got.rela[i][j], ref.rela[i][j]);
            }
        }
    }
}

/** What a reader sees of one finished DRAM point. */
struct PointReading
{
    unsigned calls = 0;
    std::vector<std::uint64_t> lines;
    std::vector<GBps> bandwidth;
    double rowHitRate = 0.0;
    double effective = 0.0;
};

void
record(const dram::DramSystem &sys, PointReading &r)
{
    ++r.calls;
    for (std::size_t g = 0; g < sys.numGenerators(); ++g) {
        r.lines.push_back(sys.generator(g).completedLines());
        r.bandwidth.push_back(sys.achievedBandwidth(g));
    }
    r.rowHitRate = sys.rowBufferHitRate();
    r.effective = sys.effectiveBandwidthFraction();
}

/**
 * A mixed batch: two-group single-MC points shaped like Fig. 5's (the
 * high group alone and under a low group), then a 4-MC
 * range-partitioned point.
 */
std::vector<DramPoint>
mixedPoints()
{
    std::vector<DramPoint> points;
    for (const char *policy : {"FR-FCFS", "ATLAS", "SMS"}) {
        for (GBps low : {0.0, 40.0}) {
            DramPoint &p = points.emplace_back();
            p.policy = policy;
            p.warmup = 2000;
            p.window = 8000;
            for (unsigned c = 0; low > 0.0 && c < 8; ++c) {
                dram::TrafficParams &g = p.generators.emplace_back();
                g.source = c;
                g.demand = low / 8;
                g.seed = 1000 + c;
            }
            for (unsigned c = 0; c < 8; ++c) {
                dram::TrafficParams &g = p.generators.emplace_back();
                g.source = 8 + c;
                g.demand = 54.0 / 8;
                g.seed = 2000 + c;
            }
        }
    }
    DramPoint &p = points.emplace_back();
    p.perMcConfig.channels = 1;
    p.perMcConfig.requestBufferEntries = 64;
    p.numMcs = 4;
    p.policy = "ATLAS";
    p.mapping = dram::McMapping::RangePartitioned;
    p.warmup = 2000;
    p.window = 8000;
    for (unsigned s : {0u, 20u, 36u, 52u}) {
        dram::TrafficParams &g = p.generators.emplace_back();
        g.source = s;
        g.demand = s == 0 ? 8.0 : 6.0;
        g.seed = 11 + s;
    }
    return points;
}

TEST(RunDramPoints, ReadsEachPointOnceInInputOrderAtAnyPoolSize)
{
    // Oracle: each point built and measured by hand, serially.
    const std::vector<DramPoint> points = mixedPoints();
    std::vector<PointReading> want(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        const DramPoint &p = points[i];
        dram::DramSystem sys(p.perMcConfig, p.numMcs, p.policy,
                             p.mapping, {}, p.runMode);
        for (const dram::TrafficParams &gen : p.generators)
            sys.addGenerator(gen);
        sys.run(p.warmup);
        sys.resetMeasurement();
        sys.run(p.window);
        record(sys, want[i]);
        EXPECT_GT(want[i].lines.back(), 0u) << "point " << i;
    }

    runner::SweepEngine serial(1);
    runner::SweepEngine pool(4);
    for (runner::SweepEngine *eng : {&serial, &pool}) {
        SCOPED_TRACE(testing::Message() << "jobs=" << eng->jobs());
        std::vector<PointReading> got(points.size());
        runDramPoints(points, eng,
                      [&](std::size_t idx, const dram::DramSystem &sys) {
                          record(sys, got[idx]);
                      });
        for (std::size_t i = 0; i < points.size(); ++i) {
            SCOPED_TRACE(testing::Message() << "point " << i);
            EXPECT_EQ(got[i].calls, 1u);
            ASSERT_EQ(got[i].lines.size(), points[i].generators.size());
            EXPECT_EQ(got[i].lines, want[i].lines);
            EXPECT_EQ(got[i].bandwidth, want[i].bandwidth);
            EXPECT_EQ(got[i].rowHitRate, want[i].rowHitRate);
            EXPECT_EQ(got[i].effective, want[i].effective);
        }
    }
}

TEST(CalibrateMultiMc, PartitionedVictimShruggedOffWhenIsolated)
{
    // Under RangePartitioned, the victim (source 0, bottom slice)
    // shares its controller with at most the aggressors whose slices
    // land there; with interleaving every aggressor lands on every
    // controller. Contention at the top external step must therefore
    // be no worse under partitioning.
    McSweepSpec spec = smallMcSpec();
    spec.mapping = dram::McMapping::RangePartitioned;
    const CalibrationMatrix part = calibrateMultiMc(spec);
    spec.mapping = dram::McMapping::LineInterleaved;
    const CalibrationMatrix inter = calibrateMultiMc(spec);
    const std::size_t last = part.numExternal() - 1;
    const std::size_t big = part.numKernels() - 1;
    EXPECT_GE(part.rela[big][last], inter.rela[big][last] - 2.0);
}

} // namespace
} // namespace pccs::calib

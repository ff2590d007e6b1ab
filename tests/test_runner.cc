/**
 * @file
 * Tests of the runner layer: the sweep engine's bit-equality with
 * direct simulator calls at any job count, its always-empty cache
 * view, the PCCS_JOBS fallback, the pool's start on first use, and
 * the RunResult artifact rendering.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <limits>
#include <vector>

#include "calib/calibrator.hh"
#include "runner/run_spec.hh"
#include "runner/sweep_engine.hh"
#include "soc/simulator.hh"

using namespace pccs;

namespace {

std::vector<runner::EvalPoint>
gpuSweepPoints(const soc::SocSimulator &sim, std::size_t gpu)
{
    std::vector<runner::EvalPoint> points;
    for (unsigned i = 0; i < 4; ++i) {
        const soc::KernelProfile k = calib::makeCalibrator(
            sim.model(), sim.config().pus[gpu], 25.0 + 25.0 * i);
        for (unsigned j = 1; j <= 5; ++j)
            points.push_back({gpu, k, 15.0 * j});
    }
    return points;
}

} // namespace

TEST(SweepEngine, ParallelEqualsSerialOnCalibrationMatrix)
{
    const soc::SocSimulator sim(soc::xavierLike());
    const std::size_t gpu = static_cast<std::size_t>(
        sim.config().puIndex(soc::PuKind::Gpu));

    runner::SweepEngine serial(1);
    runner::SweepEngine parallel(4);
    ASSERT_EQ(serial.jobs(), 1u);
    ASSERT_EQ(parallel.jobs(), 4u);

    const calib::CalibrationMatrix a =
        calib::calibrate(sim, gpu, {}, &serial);
    const calib::CalibrationMatrix b =
        calib::calibrate(sim, gpu, {}, &parallel);

    ASSERT_EQ(a.numKernels(), b.numKernels());
    ASSERT_EQ(a.numExternal(), b.numExternal());
    EXPECT_EQ(a.standaloneBw, b.standaloneBw);
    EXPECT_EQ(a.externalBw, b.externalBw);
    for (std::size_t i = 0; i < a.numKernels(); ++i) {
        for (std::size_t j = 0; j < a.numExternal(); ++j) {
            // Bit-identical, not approximately equal.
            EXPECT_EQ(a.rela[i][j], b.rela[i][j])
                << "rela[" << i << "][" << j << "]";
        }
    }
}

TEST(SweepEngine, BatchMatchesDirectSimulatorCalls)
{
    const soc::SocSimulator sim(soc::xavierLike());
    const std::size_t gpu = static_cast<std::size_t>(
        sim.config().puIndex(soc::PuKind::Gpu));
    const auto points = gpuSweepPoints(sim, gpu);

    for (const unsigned jobs : {1u, 4u}) {
        runner::SweepEngine engine(jobs);
        const std::vector<double> batch =
            engine.evaluateBatch(sim, points);
        ASSERT_EQ(batch.size(), points.size());
        for (std::size_t i = 0; i < points.size(); ++i) {
            const runner::EvalPoint &p = points[i];
            const double direct = sim.relativeSpeedUnderPressure(
                p.puIndex, p.kernel, p.externalBw);
            EXPECT_EQ(batch[i], direct) << "jobs " << jobs;
            EXPECT_EQ(engine.evaluate(sim, p.puIndex, p.kernel,
                                      p.externalBw),
                      direct)
                << "jobs " << jobs;
            const soc::StandaloneProfile prof =
                engine.profile(sim, p.puIndex, p.kernel);
            const soc::StandaloneProfile want =
                sim.profile(p.puIndex, p.kernel);
            EXPECT_EQ(prof.bandwidthDemand, want.bandwidthDemand);
            EXPECT_EQ(prof.seconds, want.seconds);
            EXPECT_EQ(prof.rate, want.rate);
        }
    }
}

TEST(SweepEngine, CacheViewStaysEmpty)
{
    const soc::SocSimulator sim(soc::xavierLike());
    const std::size_t gpu = static_cast<std::size_t>(
        sim.config().puIndex(soc::PuKind::Gpu));

    runner::SweepEngine engine(2);
    calib::calibrate(sim, gpu, {}, &engine);
    engine.evaluateBatch(sim, gpuSweepPoints(sim, gpu));
    EXPECT_EQ(engine.cache().size(), 0u);
    EXPECT_EQ(engine.cache().stats().lookups(), 0u);
    EXPECT_EQ(engine.cache().stats().hitRate(), 0.0);
}

TEST(SweepEngine, PccsJobsEnvForcesSerialFallback)
{
    setenv("PCCS_JOBS", "1", 1);
    runner::SweepEngine engine; // jobs = 0 -> consult PCCS_JOBS
    unsetenv("PCCS_JOBS");
    EXPECT_EQ(engine.jobs(), 1u);

    const soc::SocSimulator sim(soc::xavierLike());
    const std::size_t gpu = static_cast<std::size_t>(
        sim.config().puIndex(soc::PuKind::Gpu));
    const auto points = gpuSweepPoints(sim, gpu);
    const auto results = engine.evaluateBatch(sim, points);
    runner::SweepEngine parallel(4);
    EXPECT_EQ(results, parallel.evaluateBatch(sim, points));
}

TEST(SweepEngine, PccsJobsEnvSizesThePool)
{
    setenv("PCCS_JOBS", "3", 1);
    runner::SweepEngine engine;
    unsetenv("PCCS_JOBS");
    EXPECT_EQ(engine.jobs(), 3u);
}

TEST(SweepEngine, ParallelForCoversEveryIndexOnce)
{
    runner::SweepEngine engine(4);
    std::vector<int> counts(257, 0);
    engine.parallelFor(counts.size(), [&](std::size_t i) {
        ++counts[i]; // each index owned by exactly one worker
    });
    for (std::size_t i = 0; i < counts.size(); ++i)
        EXPECT_EQ(counts[i], 1) << "index " << i;
}

TEST(ThreadPool, SpawnsWorkersOnFirstParallelRun)
{
    runner::ThreadPool pool(3);
    EXPECT_EQ(pool.workers(), 0u);
    int single = 0;
    pool.run(1, [&](std::size_t) { ++single; }); // inline, no spawn
    EXPECT_EQ(single, 1);
    EXPECT_EQ(pool.workers(), 0u);
    // Two batches: the first spawns, the second reuses the workers.
    for (int batch = 0; batch < 2; ++batch) {
        std::vector<int> counts(101, 0);
        pool.run(counts.size(), [&](std::size_t i) { ++counts[i]; });
        EXPECT_EQ(pool.workers(), 3u);
        for (std::size_t i = 0; i < counts.size(); ++i)
            EXPECT_EQ(counts[i], 1) << "batch " << batch << " index " << i;
    }
}

TEST(RunResult, JsonContainsSpecSeriesAndTables)
{
    runner::RunResult r;
    r.spec.experiment = "unit_test";
    r.spec.title = "a \"quoted\" title";
    r.spec.paperRef = "Figure 0";
    r.spec.socName = "xavier-like";
    r.spec.puName = "GPU";
    r.spec.externalBw = {10.0, 20.0};
    r.kernels.push_back(
        {"bfs", 55.25, {{"actual", {99.0, 88.5}}}});
    r.tables.push_back({"summary", {"a", "b"}, {{"1", "2"}}});

    const std::string json = r.toJson();
    EXPECT_NE(json.find("\"experiment\": \"unit_test\""),
              std::string::npos);
    EXPECT_NE(json.find("a \\\"quoted\\\" title"), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"bfs\""), std::string::npos);
    EXPECT_NE(json.find("\"actual\""), std::string::npos);
    EXPECT_NE(json.find("\"summary\""), std::string::npos);

    const std::string csv = r.toCsv();
    EXPECT_NE(csv.find("kernel,demand_gbps,series,"
                       "external_bw_gbps,value"),
              std::string::npos);
    EXPECT_NE(csv.find("bfs"), std::string::npos);
    EXPECT_NE(csv.find("# summary"), std::string::npos);
}

TEST(RunResult, JsonNumberIsRoundTrippableAndFiniteSafe)
{
    EXPECT_EQ(runner::jsonNumber(0.5), "0.5");
    const double v = 1.0 / 3.0;
    EXPECT_EQ(std::stod(runner::jsonNumber(v)), v);
    EXPECT_EQ(runner::jsonNumber(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
}

#include "calibrator.hh"

#include <cstdio>
#include <utility>

#include "common/bisection.hh"
#include "common/logging.hh"

namespace pccs::calib {

namespace {

/**
 * Where the rate formula, inverted, puts the target: the intensity at
 * which the standalone time per byte t_base = max(t_c, t_m) +
 * (1 - o) * min(t_c, t_m) equals 1 / target. Only a seed.
 */
double
intensityEstimate(const soc::RateTerms &terms, GBps target_bw)
{
    const double tau = 1.0 / (target_bw * bytesPerGB);
    const double t_m = terms.serviceTime;
    const double hidden = 1.0 - terms.overlap;
    double t_c = tau - hidden * t_m; // compute-bound side, t_c >= t_m
    if (t_c < t_m)
        t_c = hidden > 0.0 ? (tau - t_m) / hidden : t_m;
    return t_c * terms.compute;
}

/**
 * The operational intensity whose standalone demand on the PU behind
 * `terms` is as close as possible to `target_bw`: the end of an
 * 80-step geometric bisection of [1e-4, 1e5] (1e-4 itself when the
 * target is beyond what the PU can draw).
 */
double
solveIntensity(const soc::RateTerms &terms, GBps target_bw)
{
    PCCS_ASSERT(target_bw > 0.0, "calibrator target must be positive");
    // Standalone demand is monotonically non-increasing in operational
    // intensity: more flops per byte -> more compute-bound -> less
    // bandwidth, and every rounded step of the rate formula keeps that
    // order. So the bisection's end is solved exactly from the
    // intensity where demand first drops to the target.
    const auto demand = [&terms](double intensity) -> GBps {
        return terms.rate(intensity, 0.0, 0.0) / bytesPerGB;
    };
    const double lo = 1e-4; // essentially pure streaming
    const double hi = 1e5;  // essentially pure compute
    if (target_bw >= demand(lo)) {
        // Target beyond what the PU can draw: the most memory-bound
        // calibrator.
        return lo;
    }
    return solveBisection<Midpoint::Geometric>(
        lo, hi, 80, intensityEstimate(terms, target_bw),
        [&](double x) { return !(demand(x) > target_bw); });
}

soc::KernelProfile
calibratorKernel(double intensity, double locality)
{
    soc::KernelProfile kernel;
    kernel.locality = locality;
    kernel.workBytes = 1e9;
    kernel.intensity = intensity;
    return kernel;
}

} // namespace

soc::KernelProfile
makeCalibrator(const soc::ExecutionModel &model, const soc::PuParams &pu,
               GBps target_bw, double locality)
{
    soc::KernelProfile kernel = calibratorKernel(
        solveIntensity(model.rateTerms(pu, locality), target_bw), locality);
    char name[64];
    std::snprintf(name, sizeof(name), "calib-%.1fGBps", target_bw);
    kernel.name = name;
    return kernel;
}

std::vector<GBps>
externalLadder(GBps max_external, unsigned steps)
{
    std::vector<GBps> ladder;
    for (unsigned j = 1; j <= steps; ++j)
        ladder.push_back(max_external * j / steps);
    return ladder;
}

CalibrationMatrix
calibrate(const soc::SocSimulator &sim, std::size_t pu_index,
          const SweepSpec &spec, runner::SweepEngine *engine)
{
    PCCS_ASSERT(pu_index < sim.config().pus.size(),
                "bad PU index %zu", pu_index);
    PCCS_ASSERT(spec.numKernels >= 2 && spec.numExternal >= 2,
                "sweep needs at least 2x2 points");

    runner::SweepEngine &eng =
        engine ? *engine : runner::SweepEngine::global();
    const soc::PuParams &pu = sim.config().pus[pu_index];
    const GBps draw = pu.drawBandwidth();
    const GBps peak = sim.config().memory.peakBandwidth;

    CalibrationMatrix m;

    // Calibrator ladder: evenly spaced targets over the PU's range.
    // The kernels never leave this function, so they go unnamed, and
    // they share one PU and locality, so the rate terms are hoisted.
    const soc::RateTerms terms = sim.model().rateTerms(pu, spec.locality);
    std::vector<soc::KernelProfile> kernels;
    for (unsigned i = 0; i < spec.numKernels; ++i) {
        const double frac =
            spec.minDemandFraction +
            (spec.maxDemandFraction - spec.minDemandFraction) *
                static_cast<double>(i) /
                static_cast<double>(spec.numKernels - 1);
        const GBps target = frac * draw;
        soc::KernelProfile k = calibratorKernel(
            solveIntensity(terms, target), spec.locality);
        const GBps achieved =
            sim.model().standalone(pu, k).bandwidthDemand;
        kernels.push_back(std::move(k));
        m.standaloneBw.push_back(achieved);
    }

    m.externalBw =
        externalLadder(spec.maxExternalFraction * peak, spec.numExternal);

    // The rela matrix is a batch of independent points.
    std::vector<runner::EvalPoint> points;
    points.reserve(m.numKernels() * m.numExternal());
    for (std::size_t i = 0; i < m.numKernels(); ++i)
        for (std::size_t j = 0; j < m.numExternal(); ++j)
            points.push_back({pu_index, kernels[i], m.externalBw[j]});
    const std::vector<double> rela = eng.evaluateBatch(sim, points);

    m.rela.assign(m.numKernels(),
                  std::vector<double>(m.numExternal(), 0.0));
    for (std::size_t i = 0; i < m.numKernels(); ++i)
        for (std::size_t j = 0; j < m.numExternal(); ++j)
            m.rela[i][j] = rela[i * m.numExternal() + j];
    return m;
}

void
runDramPoints(const std::vector<DramPoint> &points,
              runner::SweepEngine *engine, const DramPointReader &read)
{
    runner::SweepEngine &eng =
        engine ? *engine : runner::SweepEngine::global();
    eng.parallelFor(points.size(), [&](std::size_t idx) {
        const DramPoint &p = points[idx];
        dram::DramSystem sys(p.perMcConfig, p.numMcs, p.policy,
                             p.mapping, {}, p.runMode);
        for (const dram::TrafficParams &gen : p.generators)
            sys.addGenerator(gen);
        sys.run(p.warmup);
        sys.resetMeasurement();
        sys.run(p.window);
        read(idx, sys);
    });
}

CalibrationMatrix
calibrateMultiMc(const McSweepSpec &spec, runner::SweepEngine *engine)
{
    PCCS_ASSERT(spec.numMcs >= 1, "need at least one controller");
    PCCS_ASSERT(spec.numKernels >= 2 && spec.numExternal >= 1,
                "sweep needs at least 2x1 points");
    PCCS_ASSERT(spec.numAggressors >= 1 &&
                    spec.numAggressors < dram::Scheduler::maxSources,
                "bad aggressor count %u", spec.numAggressors);

    const GBps per_mc_peak = spec.perMcConfig.peakBandwidth();
    const GBps peak = per_mc_peak * spec.numMcs;

    CalibrationMatrix m;
    for (unsigned i = 0; i < spec.numKernels; ++i) {
        const double frac =
            spec.minDemandFraction +
            (spec.maxDemandFraction - spec.minDemandFraction) *
                static_cast<double>(i) /
                static_cast<double>(spec.numKernels - 1);
        m.standaloneBw.push_back(frac * per_mc_peak);
    }
    m.externalBw =
        externalLadder(spec.maxExternalFraction * peak, spec.numExternal);

    // Row i holds the standalone run (column 0, the rela denominator)
    // and then the co-runs. The victim is generator 0; the aggressor
    // sources are spread across the 64 source slices so the external
    // pressure lands on every partition.
    const std::size_t cols = m.numExternal() + 1;
    const unsigned stride =
        dram::Scheduler::maxSources / (spec.numAggressors + 1);
    std::vector<DramPoint> points;
    for (std::size_t i = 0; i < m.numKernels(); ++i) {
        for (std::size_t j = 0; j < cols; ++j) {
            DramPoint &p = points.emplace_back(DramPoint{spec, {}});
            p.generators.push_back({.source = 0,
                                    .demand = m.standaloneBw[i],
                                    .seed = spec.seed * 131});
            const GBps external = j == 0 ? 0.0 : m.externalBw[j - 1];
            for (unsigned a = 1; external > 0.0 && a <= spec.numAggressors;
                 ++a) {
                p.generators.push_back(
                    {.source = a * stride,
                     .demand = external /
                               static_cast<double>(spec.numAggressors),
                     .rowLocality = 0.85,
                     .seed = spec.seed * 131 + a * stride});
            }
        }
    }
    std::vector<GBps> bw(points.size(), 0.0);
    runDramPoints(points, engine,
                  [&](std::size_t idx, const dram::DramSystem &sys) {
                      bw[idx] = sys.achievedBandwidth(0);
                  });

    m.rela.assign(m.numKernels(),
                  std::vector<double>(m.numExternal(), 0.0));
    for (std::size_t i = 0; i < m.numKernels(); ++i) {
        const GBps solo = bw[i * cols];
        m.standaloneBw[i] = solo;
        for (std::size_t j = 0; j < m.numExternal(); ++j) {
            m.rela[i][j] =
                solo > 0.0 ? 100.0 * bw[i * cols + j + 1] / solo : 0.0;
        }
    }
    return m;
}

} // namespace pccs::calib

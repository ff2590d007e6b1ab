/**
 * @file
 * soc_design: a seeded stream of distinct SoC designs, the way a
 * design-space user would sweep them. For each design every PU is
 * calibrated and its PCCS model built, Rodinia kernels are swept on
 * the CPU and GPU against simulated ground truth (PCCS and Gables
 * predictions both scored), then the GPU clock is chosen for a kernel
 * under pressure and a three-task placement is ranked. No DRAM work
 * runs. The designs never repeat, so evaluation-cache reuse and
 * worker-pool overhead show only where a real sweep would see them.
 *
 * Output check: every batched prediction must be bitwise equal to the
 * scalar relativeSpeed of the same model.
 */

#include <cmath>
#include <string>
#include <vector>

#include "calib/calibrator.hh"
#include "common/rng.hh"
#include "gables/gables.hh"
#include "pccs/builder.hh"
#include "pccs/design.hh"
#include "pccs/placement.hh"
#include "runner/sweep_engine.hh"
#include "soc/builder.hh"
#include "workloads.hh"
#include "workloads/nn.hh"
#include "workloads/rodinia.hh"

namespace perfbench {

using namespace pccs;

namespace {

/** Designs per pass. */
constexpr std::size_t kDesignsPerPass = 50;
/** External-pressure ladder steps per swept kernel. */
constexpr unsigned kLadderSteps = 10;
/** Allowed co-run slowdown of the frequency selection, percent. */
constexpr double kAllowedSlowdownPct = 10.0;

/** Design `index` of the stream for `seed`: a CPU, a GPU and a DLA. */
soc::SocConfig
makeDesign(std::uint64_t seed, std::uint64_t index)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + index);
    const GBps peak = rng.uniform(60.0, 200.0);
    return soc::SocBuilder("design-" + std::to_string(index))
        .memory(peak)
        .addCpu("cpu", rng.uniform(1400.0, 2600.0),
                rng.uniform(32.0, 96.0), rng.uniform(0.35, 0.6) * peak)
        .addGpu("gpu", rng.uniform(900.0, 1600.0),
                rng.uniform(512.0, 1536.0),
                rng.uniform(0.55, 0.8) * peak)
        .addDla("dla", rng.uniform(1000.0, 1600.0),
                rng.uniform(256.0, 768.0), rng.uniform(0.12, 0.2) * peak)
        .build();
}

/** Inputs shared by every design. */
struct Inputs
{
    /** Rodinia kernels swept on the first CPU and on the GPU. */
    std::vector<soc::KernelProfile> cpuKernels, gpuKernels;
    /**
     * Placement tasks: the compute-intensive Rodinia kernels (CPU and
     * GPU builds) and a DLA network. Memory-bound tasks would push
     * co-run demand past where the fitted curves reach zero speed,
     * and the co-run predictor treats a predicted stall as a bug.
     */
    std::vector<soc::KernelProfile> placeCpu, placeGpu;
    soc::PhasedWorkload dlaTask;
};

/** Running totals across designs. */
struct Totals
{
    double pccsErr = 0.0;
    double gablesErr = 0.0;
    std::size_t points = 0;
};

/**
 * Sweep `kernels` on PU `pu` over the external ladder: simulated truth
 * through the engine, predictions through both batch kernels.
 * @return false when a batched prediction differs from the scalar one
 */
bool
sweepKernels(const soc::SocSimulator &sim, std::size_t pu,
             const std::vector<soc::KernelProfile> &kernels,
             const model::PccsModel &pccs, const gables::GablesModel &gables,
             runner::SweepEngine &engine, Totals &tot)
{
    const GBps peak = sim.config().memory.peakBandwidth;
    std::vector<runner::EvalPoint> points;
    std::vector<GBps> xs, ys;
    for (const soc::KernelProfile &k : kernels) {
        soc::StandaloneProfile prof;
        timed("SweepEngine::profile",
              [&] { prof = engine.profile(sim, pu, k); });
        for (unsigned j = 1; j <= kLadderSteps; ++j) {
            const GBps y = 0.73 * peak * j / kLadderSteps;
            points.push_back({pu, k, y});
            xs.push_back(prof.bandwidthDemand);
            ys.push_back(y);
        }
    }
    std::vector<double> actual;
    timed("SweepEngine::evaluateBatch",
          [&] { actual = engine.evaluateBatch(sim, points); });
    std::vector<double> rs_p(xs.size()), rs_g(xs.size());
    timed("PccsModel::relativeSpeedBatch",
          [&] { pccs.relativeSpeedBatch(xs, ys, rs_p); });
    timed("GablesModel::relativeSpeedBatch",
          [&] { gables.relativeSpeedBatch(xs, ys, rs_g); });
    tracer().count("soc.eval_points", static_cast<double>(points.size()));
    tracer().count("pccs.predict_points", static_cast<double>(xs.size()));

    bool bit_exact = true;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        bit_exact = bit_exact &&
                    sameBits(rs_p[i], pccs.relativeSpeed(xs[i], ys[i])) &&
                    sameBits(rs_g[i], gables.relativeSpeed(xs[i], ys[i]));
        tot.pccsErr += std::abs(rs_p[i] - actual[i]);
        tot.gablesErr += std::abs(rs_g[i] - actual[i]);
    }
    tot.points += xs.size();
    return bit_exact;
}

/** Evaluate one design end to end. */
void
evaluateDesign(const soc::SocConfig &config, const Inputs &in,
               std::uint64_t pick, runner::SweepEngine &engine,
               Outcome &out, Totals &tot)
{
    Span design_span("design");
    const soc::SocSimulator sim(config);
    const GBps peak = config.memory.peakBandwidth;
    const std::size_t num_pus = config.pus.size();
    const auto cpu = static_cast<std::size_t>(config.puIndex(soc::PuKind::Cpu));
    const auto gpu = static_cast<std::size_t>(config.puIndex(soc::PuKind::Gpu));

    std::vector<model::PccsModel> models;
    models.reserve(num_pus);
    for (std::size_t pu = 0; pu < num_pus; ++pu) {
        calib::CalibrationMatrix m;
        timed("calib::calibrate",
              [&] { m = calib::calibrate(sim, pu, {}, &engine); });
        model::PccsParams params;
        timed("model::buildModelParams",
              [&] { params = model::buildModelParams(m, peak); });
        models.emplace_back(params);
    }
    const gables::GablesModel gables(peak);

    const bool cpu_exact = sweepKernels(sim, cpu, in.cpuKernels,
                                        models[cpu], gables, engine, tot);
    const bool gpu_exact = sweepKernels(sim, gpu, in.gpuKernels,
                                        models[gpu], gables, engine, tot);
    out.check(cpu_exact && gpu_exact,
              config.name + ": batched prediction differs from scalar");

    // Lowest GPU clock keeping a kernel within the allowed slowdown
    // under moderate pressure, chosen with each model.
    const soc::KernelProfile &k = in.gpuKernels[pick % in.gpuKernels.size()];
    const MHz fmax = config.pus[gpu].maxFrequency;
    std::vector<MHz> grid;
    for (unsigned s = 0; s <= 15; ++s)
        grid.push_back(fmax * (0.3 + 0.7 * s / 15.0));
    model::DesignSelection sel_p, sel_g;
    timed("DesignExplorer", [&] {
        const model::DesignExplorer explorer(config, &engine);
        sel_p = explorer.selectFrequency(gpu, k, 0.3 * peak,
                                         kAllowedSlowdownPct,
                                         models[gpu], grid);
        sel_g = explorer.selectFrequency(gpu, k, 0.3 * peak,
                                         kAllowedSlowdownPct, gables,
                                         grid);
    });
    out.check(sel_p.value >= grid.front() && sel_p.value <= fmax &&
                  sel_g.value >= grid.front() && sel_g.value <= fmax,
              config.name + ": frequency selection outside its grid");

    // Rank the placements of two Rodinia tasks and a DLA network.
    std::vector<model::PlacementTask> tasks(3);
    for (std::size_t t = 0; t < 2; ++t) {
        const std::size_t b = (pick >> (8 * (t + 1))) % in.placeCpu.size();
        tasks[t].name = in.placeCpu[b].name;
        for (const soc::PuParams &pu : config.pus) {
            tasks[t].options.push_back(
                pu.kind == soc::PuKind::Cpu
                    ? soc::PhasedWorkload::single(in.placeCpu[b])
                : pu.kind == soc::PuKind::Gpu
                    ? soc::PhasedWorkload::single(in.placeGpu[b])
                    : soc::PhasedWorkload{});
        }
    }
    tasks[2].name = in.dlaTask.name;
    for (const soc::PuParams &pu : config.pus)
        tasks[2].options.push_back(pu.kind == soc::PuKind::Dla
                                       ? in.dlaTask
                                       : soc::PhasedWorkload{});
    std::vector<const model::SlowdownPredictor *> predictors;
    for (const auto &m : models)
        predictors.push_back(&m);
    std::vector<model::PlacementChoice> choices;
    timed("enumeratePlacements", [&] {
        choices = model::enumeratePlacements(sim, predictors, tasks);
    });
    out.check(!choices.empty() &&
                  choices.front().score >= choices.back().score,
              config.name + ": no ranked placement");
}

} // namespace

Outcome
runSocDesign(const RunConfig &cfg)
{
    Outcome out;
    runner::SweepEngine &engine = runner::SweepEngine::global();
    const unsigned passes = passCount(cfg, 0.25);
    Inputs in;
    std::vector<soc::SocConfig> designs;
    Totals warm;

    // Set-up: the run's design stream and kernel profiles, then one
    // warm-up design of a separate stream (never measured).
    runSetups(kSetups, out, [&](unsigned i) {
        designs.clear();
        for (std::size_t d = 0; d < passes * kDesignsPerPass; ++d)
            designs.push_back(makeDesign(cfg.seed, d));
        in = Inputs{};
        for (const std::string &name : workloads::cpuBenchmarks())
            in.cpuKernels.push_back(
                workloads::rodiniaKernel(name, soc::PuKind::Cpu));
        for (const std::string &name : workloads::gpuBenchmarks())
            in.gpuKernels.push_back(
                workloads::rodiniaKernel(name, soc::PuKind::Gpu));
        for (const workloads::RodiniaSpec &spec : workloads::rodiniaSuite()) {
            if (!spec.computeIntensive)
                continue;
            in.placeCpu.push_back(
                workloads::rodiniaKernel(spec.name, soc::PuKind::Cpu));
            in.placeGpu.push_back(
                workloads::rodiniaKernel(spec.name, soc::PuKind::Gpu));
        }
        in.dlaTask = workloads::dlaWorkload("Resnet-50");
        Outcome scratch;
        evaluateDesign(makeDesign(~cfg.seed, i), in, i, engine, scratch,
                       warm);
    });

    Totals tot;
    Rng pick(cfg.seed ^ 0xde5u);
    runPasses(cfg, passes, out, [&](unsigned pass) {
        for (std::size_t d = 0; d < kDesignsPerPass; ++d) {
            const Clock::time_point t0 = Clock::now();
            evaluateDesign(designs[pass * kDesignsPerPass + d], in,
                           pick.next(), engine, out, tot);
            out.opLatencyUs.push_back(static_cast<float>(
                secondsBetween(t0, Clock::now()) * 1e6));
        }
    });

    out.pccsErrPp = tot.pccsErr / static_cast<double>(tot.points);
    out.gablesErrPp = tot.gablesErr / static_cast<double>(tot.points);

    runner::CacheStats cache;
    timed("EvalCache::stats", [&] { cache = engine.cache().stats(); });
    const double entries = static_cast<double>(engine.cache().size());
    out.guard["runner.cache_entries"] = entries;

    const Tracer &t = tracer();
    const double eval_s = t.totalSeconds("SweepEngine::evaluateBatch");
    const double predict_s = t.totalSeconds("PccsModel::relativeSpeedBatch");
    out.layer["calib.calibrate_s"] = t.totalSeconds("calib::calibrate");
    out.layer["soc.eval_points"] = t.counter("soc.eval_points");
    out.layer["soc.eval_s"] = eval_s;
    out.layer["soc.eval_points_per_s"] =
        eval_s > 0.0 ? t.counter("soc.eval_points") / eval_s : 0.0;
    out.engineJobs = engine.jobs();
    out.layer["runner.jobs"] = engine.jobs();
    out.layer["runner.cache_hit_rate"] = cache.hitRate();
    out.layer["runner.cache_entries"] = entries;
    out.layer["pccs.build_s"] = t.totalSeconds("model::buildModelParams");
    out.layer["pccs.predict_points_per_s"] =
        predict_s > 0.0 ? t.counter("pccs.predict_points") / predict_s
                        : 0.0;
    out.layer["pccs.explore_s"] = t.totalSeconds("DesignExplorer");
    out.layer["pccs.place_s"] = t.totalSeconds("enumeratePlacements");
    out.layer["gables.predict_s"] =
        t.totalSeconds("GablesModel::relativeSpeedBatch");
    return out;
}

} // namespace perfbench

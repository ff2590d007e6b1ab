#include "design.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace pccs::model {

DesignExplorer::DesignExplorer(const soc::SocConfig &config,
                               runner::SweepEngine *engine)
    : config_(config),
      engine_(engine ? engine : &runner::SweepEngine::global())
{
    PCCS_ASSERT(!config_.pus.empty(), "explorer needs a populated SoC");
}

soc::SocConfig
DesignExplorer::configured(std::size_t pu_index, MHz frequency,
                           double core_scale) const
{
    PCCS_ASSERT(pu_index < config_.pus.size(), "bad PU index %zu",
                pu_index);
    soc::SocConfig cfg = config_;
    soc::PuParams &pu = cfg.pus[pu_index];
    if (frequency > 0.0)
        pu.frequency = frequency;
    if (core_scale > 0.0) {
        // Removing cores reduces both the compute throughput and the
        // load-issue capability; the shared interface width stays.
        pu.flopsPerCycle *= core_scale;
        pu.issueBandwidth *= core_scale;
    }
    return cfg;
}

double
DesignExplorer::performance(soc::SocConfig cfg, std::size_t pu_index,
                            const soc::KernelProfile &kernel,
                            GBps external,
                            const SlowdownPredictor *predictor) const
{
    const soc::SocSimulator sim(std::move(cfg));
    const soc::StandaloneProfile solo =
        engine_->profile(sim, pu_index, kernel);
    double rs;
    if (predictor) {
        rs = predictor->relativeSpeed(solo.bandwidthDemand, external);
    } else {
        rs = engine_->evaluate(sim, pu_index, kernel, external);
    }
    return solo.rate * rs / 100.0;
}

double
DesignExplorer::corunPerformance(std::size_t pu_index,
                                 const soc::KernelProfile &kernel,
                                 MHz frequency, GBps external,
                                 const SlowdownPredictor &predictor) const
{
    return performance(configured(pu_index, frequency, 0.0), pu_index,
                       kernel, external, &predictor);
}

double
DesignExplorer::corunPerformanceActual(std::size_t pu_index,
                                       const soc::KernelProfile &kernel,
                                       MHz frequency,
                                       GBps external) const
{
    return performance(configured(pu_index, frequency, 0.0), pu_index,
                       kernel, external, nullptr);
}

DesignSelection
DesignExplorer::selectLowest(
    const std::vector<double> &grid, double allowed_pct,
    const std::function<double(double)> &perf_at) const
{
    PCCS_ASSERT(!grid.empty(), "selection grid is empty");
    std::vector<double> sorted = grid;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t n = sorted.size();

    if (!pruneSelection_) {
        // Full scan: every grid point's performance, then the first
        // acceptable point — identical to the early-exit loop.
        std::vector<double> perfs(n, 0.0);
        for (std::size_t i = 0; i < n; ++i)
            perfs[i] = perf_at(sorted[i]);

        DesignSelection sel;
        sel.referencePerformance = perfs.back();
        const double floor =
            sel.referencePerformance * (1.0 - allowed_pct / 100.0);

        sel.value = sorted.back();
        sel.predictedPerformance = sel.referencePerformance;
        for (std::size_t i = 0; i < n; ++i) {
            if (perfs[i] >= floor) {
                sel.value = sorted[i];
                sel.predictedPerformance = perfs[i];
                break;
            }
        }
        return sel;
    }

    // Pruned selection. Co-run performance is monotone non-decreasing
    // in the knob (a higher clock or more cores never predicts slower
    // co-run performance), so the acceptable set {i : perf(i) >=
    // floor} is a suffix of the sorted grid and the full scan's
    // "first acceptable point" is the suffix boundary. The reference
    // is hoisted — computed once per query, not once per candidate —
    // and the boundary is found by binary search: 1 + ceil(log2 n)
    // evaluations instead of n.
    std::vector<double> memo(n, 0.0);
    std::vector<char> known(n, 0);
    const auto eval = [&](std::size_t i) {
        if (!known[i]) {
            memo[i] = perf_at(sorted[i]);
            known[i] = 1;
        }
        return memo[i];
    };

    DesignSelection sel;
    sel.referencePerformance = eval(n - 1);
    const double floor =
        sel.referencePerformance * (1.0 - allowed_pct / 100.0);

    // Invariant: perf(hi) >= floor (the reference itself qualifies,
    // since floor <= referencePerformance for allowed_pct >= 0).
    std::size_t lo = 0, hi = n - 1;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo) / 2;
        if (eval(mid) >= floor)
            hi = mid;
        else
            lo = mid + 1;
    }
    sel.value = sorted[hi];
    sel.predictedPerformance = eval(hi);
    return sel;
}

std::vector<double>
DesignExplorer::corunPerformanceGrid(
    std::size_t pu_index, const soc::KernelProfile &kernel,
    const std::vector<MHz> &grid, GBps external,
    const SlowdownPredictor &predictor) const
{
    const std::size_t n = grid.size();
    // Stage 1: standalone profiles of every candidate configuration
    // (the simulator-backed part).
    std::vector<soc::StandaloneProfile> solos(n);
    for (std::size_t i = 0; i < n; ++i) {
        const soc::SocSimulator sim(
            configured(pu_index, grid[i], 0.0));
        solos[i] = engine_->profile(sim, pu_index, kernel);
    }

    // Stage 2: the whole grid's slowdowns in one batch call over the
    // structure-of-arrays demands.
    std::vector<double> xs(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        xs[i] = solos[i].bandwidthDemand;
    std::vector<double> speeds(n, 0.0);
    if (const BatchPredictor *bp = batchInterface(predictor)) {
        bp->relativeSpeedBroadcast(xs, external, speeds);
    } else {
        const ScalarBatchAdapter adapter(predictor);
        adapter.relativeSpeedBroadcast(xs, external, speeds);
    }

    std::vector<double> perfs(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
        perfs[i] = solos[i].rate * speeds[i] / 100.0;
    return perfs;
}

DesignSelection
DesignExplorer::selectFrequency(std::size_t pu_index,
                                const soc::KernelProfile &kernel,
                                GBps external, double allowed_slowdown_pct,
                                const SlowdownPredictor &predictor,
                                const std::vector<MHz> &grid) const
{
    return selectLowest(grid, allowed_slowdown_pct, [&](double f) {
        return corunPerformance(pu_index, kernel, f, external, predictor);
    });
}

DesignSelection
DesignExplorer::selectFrequencyActual(std::size_t pu_index,
                                      const soc::KernelProfile &kernel,
                                      GBps external,
                                      double allowed_slowdown_pct,
                                      const std::vector<MHz> &grid) const
{
    return selectLowest(grid, allowed_slowdown_pct, [&](double f) {
        return corunPerformanceActual(pu_index, kernel, f, external);
    });
}

DesignSelection
DesignExplorer::selectCoreScale(std::size_t pu_index,
                                const soc::KernelProfile &kernel,
                                GBps external, double allowed_slowdown_pct,
                                const SlowdownPredictor &predictor,
                                const std::vector<double> &grid) const
{
    return selectLowest(grid, allowed_slowdown_pct, [&](double s) {
        return performance(configured(pu_index, 0.0, s), pu_index,
                           kernel, external, &predictor);
    });
}

} // namespace pccs::model

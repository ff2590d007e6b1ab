#include "power.hh"

#include <cmath>

#include "common/logging.hh"
#include "soc/simulator.hh"

namespace pccs::model {

double
puPower(const PowerParams &power, MHz frequency, MHz max_frequency,
        double core_scale)
{
    PCCS_ASSERT(max_frequency > 0.0, "nominal clock must be positive");
    PCCS_ASSERT(core_scale > 0.0 && core_scale <= 1.0,
                "core scale must be in (0, 1]");
    const double ratio = frequency / max_frequency;
    return power.staticWatts +
           core_scale * power.dynamicWatts *
               std::pow(ratio, power.frequencyExponent);
}

PowerBudgetResult
explorePowerBudget(const PowerBudgetProblem &problem)
{
    const std::size_t n = problem.soc.pus.size();
    PCCS_ASSERT(n > 0, "problem has no PUs");
    PCCS_ASSERT(problem.kernels.size() == n &&
                    problem.models.size() == n &&
                    problem.grids.size() == n &&
                    problem.power.size() == n,
                "problem arrays must parallel the PU list");
    for (std::size_t i = 0; i < n; ++i) {
        PCCS_ASSERT(!problem.grids[i].empty(),
                    "empty clock grid for PU %zu", i);
        PCCS_ASSERT(problem.models[i] != nullptr,
                    "missing model for PU %zu", i);
    }

    // Precompute, per PU and grid point: power, standalone demand,
    // and standalone rate; plus the full-clock reference rate.
    struct Point
    {
        MHz frequency;
        double watts;
        GBps demand;
        double rate;
    };
    std::vector<std::vector<Point>> points(n);
    std::vector<double> reference_rate(n);
    for (std::size_t i = 0; i < n; ++i) {
        const MHz fmax = problem.soc.pus[i].maxFrequency;
        const auto profile = [&](MHz f) {
            soc::SocConfig cfg = problem.soc;
            cfg.pus[i].frequency = f;
            return soc::SocSimulator(cfg).profile(i, problem.kernels[i]);
        };
        for (const MHz f : problem.grids[i]) {
            const soc::StandaloneProfile prof = profile(f);
            points[i].push_back({f, puPower(problem.power[i], f, fmax),
                                 prof.bandwidthDemand, prof.rate});
        }
        reference_rate[i] = profile(fmax).rate;
    }

    PowerBudgetResult best;
    best.worstRelativePerformance = -1.0;

    // Odometer over the grid product (grids are small by design).
    std::vector<std::size_t> idx(n, 0);
    while (true) {
        double watts = 0.0;
        for (std::size_t i = 0; i < n; ++i)
            watts += points[i][idx[i]].watts;

        if (watts <= problem.budgetWatts) {
            double worst = 1e300;
            std::vector<double> rel(n);
            for (std::size_t i = 0; i < n; ++i) {
                double external = 0.0;
                for (std::size_t j = 0; j < n; ++j)
                    if (j != i)
                        external += points[j][idx[j]].demand;
                const double rs = problem.models[i]->relativeSpeed(
                    points[i][idx[i]].demand, external);
                rel[i] = 100.0 * points[i][idx[i]].rate *
                         (rs / 100.0) / reference_rate[i];
                worst = std::min(worst, rel[i]);
            }
            // Strictly better worst-case performance wins; on ties
            // (common under contention, where the memory grant caps
            // performance), the cheaper assignment wins.
            const bool better =
                worst > best.worstRelativePerformance + 1e-9 ||
                (worst > best.worstRelativePerformance - 1e-9 &&
                 !best.frequencies.empty() &&
                 watts < best.totalWatts - 1e-9);
            if (better) {
                best.worstRelativePerformance = worst;
                best.totalWatts = watts;
                best.relativePerformance = rel;
                best.frequencies.resize(n);
                for (std::size_t i = 0; i < n; ++i)
                    best.frequencies[i] = points[i][idx[i]].frequency;
            }
        }

        // Advance the odometer.
        std::size_t d = 0;
        while (d < n && ++idx[d] == points[d].size()) {
            idx[d] = 0;
            ++d;
        }
        if (d == n)
            break;
    }

    if (best.worstRelativePerformance < 0.0) {
        best.worstRelativePerformance = 0.0;
        best.frequencies.clear();
        best.relativePerformance.clear();
    }
    return best;
}

} // namespace pccs::model

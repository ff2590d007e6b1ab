/**
 * @file
 * Figure 5: achieved relative speed (%) of the high-bandwidth core
 * group under external memory pressure from the low-bandwidth group,
 * for every registered memory-controller scheduling policy, on the
 * cycle-level DRAM simulator configured per Table 1 (16 cores,
 * 4-channel DDR4-3200, 102.4 GB/s).
 *
 * Expected result (Section 2.3): FCFS degrades everyone proportionally;
 * FR-FCFS lets memory-intensive co-runners starve the observed group;
 * only the fairness-controlled policies (ATLAS, TCM, SMS — and of the
 * extension policies BLISS and PARBS) reproduce the flat-drop-flat
 * trends measured on the real Xavier.
 *
 * On top of the per-policy grids, each policy's measured matrix is fed
 * through the PCCS model-construction algorithm (Section 3.2) and the
 * closing table reports the extracted region boundaries plus the
 * model's mean fit error against the measurements, next to the Gables
 * baseline's error on the same grid — i.e., which policies preserve
 * the minor/normal/intensive three-region structure and how the PCCS
 * calibration error shifts per policy.
 *
 * Flags: `--policies A,B,...` restricts the run to a subset of
 * registered policies; `--quick` shrinks the demand grids and windows
 * (CI smoke); plus the common `--dram-reference` run-mode flag.
 */

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/common.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "dram/system.hh"
#include "gables/gables.hh"
#include "pccs/builder.hh"

using namespace pccs;
using namespace pccs::dram;

namespace {

/** Per-policy three-region characterization derived from its grid. */
struct Characterization
{
    std::string policy;
    model::PccsParams params;
    /** Mean |model - measured| over the grid, percentage points. */
    double fitError = 0.0;
    /** The same mean for the Gables baseline, percentage points. */
    double gablesError = 0.0;
    /** True when the minor/normal/intensive structure survived. */
    bool threeRegions = false;
};

Characterization
characterize(const std::string &policy,
             const std::vector<GBps> &high_demands,
             const std::vector<GBps> &low_demands,
             const std::vector<std::vector<double>> &rela)
{
    // The measured grid *is* a calibration matrix: rows are the high
    // group's standalone demands, columns the external-pressure
    // ladder, cells the achieved relative speeds. Run the Section 3.2
    // construction on it and score the resulting model against the
    // very measurements it was built from (in-sample fit error).
    calib::CalibrationMatrix matrix;
    matrix.standaloneBw = high_demands;
    matrix.externalBw = low_demands;
    matrix.rela = rela;

    Characterization c;
    c.policy = policy;
    const GBps peak = table1Config().peakBandwidth();
    c.params = model::buildModelParams(matrix, peak);
    const auto meanError = [&](const model::SlowdownPredictor &m) {
        double err = 0.0;
        for (std::size_t i = 0; i < high_demands.size(); ++i) {
            for (std::size_t j = 0; j < low_demands.size(); ++j) {
                err += std::abs(m.relativeSpeed(high_demands[i],
                                                low_demands[j]) -
                                rela[i][j]);
            }
        }
        return err / static_cast<double>(high_demands.size() *
                                         low_demands.size());
    };
    c.fitError = meanError(model::PccsModel(c.params));
    c.gablesError = meanError(gables::GablesModel(peak));
    c.threeRegions = !c.params.noMinorRegion() &&
                     c.params.normalBw > 0.0 &&
                     c.params.normalBw < c.params.intensiveBw;
    return c;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> policies;
    bool quick = false;
    const std::vector<std::string> leftover =
        bench::consumeDramRunFlags(argc, argv);
    for (std::size_t i = 0; i < leftover.size(); ++i) {
        if (leftover[i] == "--quick") {
            quick = true;
        } else if (leftover[i] == "--policies" &&
                   i + 1 < leftover.size()) {
            PolicyList parsed = parsePolicyList(leftover[++i]);
            if (!parsed.ok())
                fatal("%s", parsed.error.c_str());
            policies.insert(policies.end(), parsed.names.begin(),
                            parsed.names.end());
        } else {
            fatal("usage: %s [--dram-reference] "
                  "[--quick] [--policies A,B,...]\n"
                  "unknown argument '%s' (valid policies: %s)",
                  argv[0], leftover[i].c_str(),
                  schedulerNameList().c_str());
        }
    }
    if (policies.empty())
        policies = schedulerNames();

    bench::banner("High-BW group relative speed under the registered "
                  "MC scheduling policies (cycle-level DRAM simulator)",
                  "Figure 5, Tables 1 & 2");

    std::vector<GBps> high_demands{18.0, 36.0, 54.0, 72.0, 90.0};
    std::vector<GBps> low_demands{10.0, 20.0, 30.0, 40.0, 50.0, 60.0};
    const Cycles warmup = quick ? 6000 : 15000;
    const Cycles window = quick ? 20000 : 60000;
    if (quick) {
        high_demands = {18.0, 54.0, 90.0};
        low_demands = {20.0, 40.0, 60.0};
    }

    runner::RunResult artifact = bench::makeArtifact(
        "fig05_scheduling_policies",
        "High-BW group relative speed under the registered MC "
        "scheduling policies",
        "Figure 5, Tables 1 & 2", "table1-ddr4", "high group",
        low_demands);

    // Every policy's grid is one batch of independent points: per
    // high-group demand, the solo run (no low group), then one co-run
    // per external demand. A point's result is the high group's
    // completed lines in the window (its achieved speed).
    std::vector<calib::DramPoint> points;
    for (const std::string &policy : policies) {
        for (GBps high : high_demands) {
            for (std::size_t j = 0; j <= low_demands.size(); ++j) {
                const GBps low = j == 0 ? 0.0 : low_demands[j - 1];
                points.push_back(bench::groupsPoint(policy, low, high,
                                                    warmup, window));
            }
        }
    }
    std::vector<double> lines(points.size(), 0.0);
    calib::runDramPoints(
        points, nullptr, [&](std::size_t idx, const DramSystem &sys) {
            std::uint64_t high_lines = 0;
            for (std::size_t i = sys.numGenerators() - bench::groupCores;
                 i < sys.numGenerators(); ++i)
                high_lines += sys.generator(i).completedLines();
            lines[idx] = static_cast<double>(high_lines);
        });

    std::size_t next = 0;
    std::vector<Characterization> chars;
    for (const std::string &policy : policies) {
        std::printf("--- %s ---\n", policy.c_str());
        std::vector<std::string> headers{"high-group demand"};
        for (GBps low : low_demands)
            headers.push_back("ext=" + fmtDouble(low, 0));
        Table t(std::move(headers));

        std::vector<std::vector<double>> rela;
        for (GBps high : high_demands) {
            const double solo = lines[next++];
            std::vector<double> row;
            for (std::size_t j = 0; j < low_demands.size(); ++j)
                row.push_back(100.0 * lines[next++] / solo);
            t.addRow(fmtDouble(high, 0) + " GB/s", row, 1);
            rela.push_back(std::move(row));
        }
        std::printf("%s\n", t.str().c_str());
        artifact.addTable(policy, t);
        chars.push_back(
            characterize(policy, high_demands, low_demands, rela));
    }

    // Three-region characterization: which policies keep the paper's
    // minor/normal/intensive structure, and how well the PCCS model
    // built from each policy's matrix fits it back (Gables, which has
    // nothing to fit, as the baseline).
    Table summary({"policy", "normalBW", "intensiveBW", "MRMC (%)",
                   "rateN", "fit err (%)", "Gables err (%)",
                   "three regions"});
    for (const Characterization &c : chars) {
        summary.addRow(
            {c.policy, fmtDouble(c.params.normalBw, 1),
             fmtDouble(c.params.intensiveBw, 1),
             c.params.noMinorRegion() ? std::string("NA")
                                      : fmtDouble(c.params.mrmc, 1),
             fmtDouble(c.params.rateN, 2), fmtDouble(c.fitError, 1),
             fmtDouble(c.gablesError, 1), c.threeRegions ? "yes" : "no"});
    }
    std::printf("--- PCCS three-region characterization ---\n%s\n",
                summary.str().c_str());
    artifact.addTable("three-region characterization", summary);

    bench::writeArtifact(std::move(artifact));

    std::printf("Expected (paper, Fig. 5): FCFS reduces speed roughly "
                "proportionally with pressure; FR-FCFS shows large\n"
                "slowdowns for the observed group when co-located with "
                "intensive traffic; the fairness-controlled policies\n"
                "(ATLAS/TCM/SMS, and BLISS/PARBS among the extension "
                "policies) show the three-stage flat/drop/flat trends\n"
                "seen on the real Xavier (Fig. 3).\n");
    return 0;
}

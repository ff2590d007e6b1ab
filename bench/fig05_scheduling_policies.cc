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

constexpr unsigned groupCores = 8;

Cycles warmup = 15000;
Cycles window = 60000;

/** Total completed lines of cores [begin, end). */
std::uint64_t
groupCompleted(DramSystem &sys, unsigned begin, unsigned end)
{
    std::uint64_t lines = 0;
    for (unsigned i = begin; i < end; ++i)
        lines += sys.generator(i).completedLines();
    return lines;
}

/**
 * Measure the high group's achieved speed (lines completed in the
 * window) with `high_total` GB/s spread over the high group and
 * `low_total` GB/s over the low group (0 = group absent).
 */
std::uint64_t
measure(const std::string &policy, GBps high_total, GBps low_total)
{
    DramSystem sys(table1Config(), policy);
    unsigned source = 0;
    for (unsigned c = 0; c < groupCores; ++c, ++source) {
        TrafficParams p;
        p.source = source;
        p.demand = low_total > 0.0 ? low_total / groupCores : 0.0;
        p.seed = 1000 + source;
        if (low_total > 0.0)
            sys.addGenerator(p);
    }
    unsigned high_begin = low_total > 0.0 ? groupCores : 0;
    for (unsigned c = 0; c < groupCores; ++c) {
        TrafficParams p;
        p.source = groupCores + c;
        p.demand = high_total / groupCores;
        p.seed = 2000 + c;
        sys.addGenerator(p);
    }
    sys.run(warmup);
    sys.resetMeasurement();
    sys.run(window);
    return groupCompleted(sys, high_begin ? groupCores : 0,
                          (high_begin ? groupCores : 0) + groupCores);
}

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
            std::string list = leftover[++i];
            std::size_t pos = 0;
            while (pos != std::string::npos) {
                const std::size_t comma = list.find(',', pos);
                const std::string tok =
                    list.substr(pos, comma == std::string::npos
                                         ? std::string::npos
                                         : comma - pos);
                if (!tok.empty())
                    policies.push_back(schedulerFromName(tok).name);
                pos = comma == std::string::npos ? comma : comma + 1;
            }
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
    if (quick) {
        high_demands = {18.0, 54.0, 90.0};
        low_demands = {20.0, 40.0, 60.0};
        warmup = 6000;
        window = 20000;
    }

    runner::RunResult artifact = bench::makeArtifact(
        "fig05_scheduling_policies",
        "High-BW group relative speed under the registered MC "
        "scheduling policies",
        "Figure 5, Tables 1 & 2", "table1-ddr4", "high group",
        low_demands);

    std::vector<Characterization> chars;
    for (const std::string &policy : policies) {
        std::printf("--- %s ---\n", policy.c_str());
        std::vector<std::string> headers{"high-group demand"};
        for (GBps low : low_demands)
            headers.push_back("ext=" + fmtDouble(low, 0));
        Table t(std::move(headers));

        std::vector<std::vector<double>> rela;
        for (GBps high : high_demands) {
            const double solo = static_cast<double>(
                measure(policy, high, 0.0));
            std::vector<double> row;
            for (GBps low : low_demands) {
                const double corun = static_cast<double>(
                    measure(policy, high, low));
                row.push_back(100.0 * corun / solo);
            }
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

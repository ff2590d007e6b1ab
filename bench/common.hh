/**
 * @file
 * Shared helpers for the benchmark harness: standard sweeps, error
 * accounting, report formatting, and machine-readable artifacts. Each
 * bench binary regenerates one table or figure of the paper, prints
 * the corresponding series, and writes a JSON + CSV artifact
 * (`<experiment>.json` / `<experiment>.csv`, in $PCCS_ARTIFACT_DIR or
 * the working directory) with the same data.
 *
 * SoC sweep points run inline on the calling thread; the DRAM benches
 * submit their simulations as one batch to `calib::runDramPoints`,
 * which fans them out over the `runner::SweepEngine` pool.
 */

#ifndef PCCS_BENCH_COMMON_HH
#define PCCS_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "calib/calibrator.hh"
#include "common/table.hh"
#include "pccs/predictor.hh"
#include "runner/run_spec.hh"
#include "runner/sweep_engine.hh"
#include "soc/simulator.hh"

namespace pccs::bench {

/** Print a banner naming the experiment being regenerated. */
void banner(const std::string &title, const std::string &paper_ref);

/**
 * Handle the DRAM run-loop flags shared by the DRAM-driven benches:
 * `--dram-reference` selects the cycle-by-cycle reference loop for
 * every DramSystem the bench constructs, on one controller or many.
 * The default is the bit-exact event-driven loop. Unknown arguments
 * are fatal.
 */
void applyDramRunFlags(int argc, char **argv);

/**
 * Like applyDramRunFlags(), but returns the arguments it did not
 * consume (for benches with flags of their own) instead of treating
 * them as fatal. argv[0] is not included in the result.
 */
std::vector<std::string> consumeDramRunFlags(int argc, char **argv);

/** Cores per group in the two-group Table 1 DRAM experiments. */
inline constexpr unsigned groupCores = 8;

/**
 * A two-group Table 1 DRAM point (Fig. 5, Table 3): `low_total` GB/s
 * over sources 0..7 (absent when 0), `high_total` over 8..15.
 */
calib::DramPoint groupsPoint(const std::string &policy, GBps low_total,
                             GBps high_total, Cycles warmup,
                             Cycles window);

using calib::externalLadder;

/** One predicted-vs-actual sweep result for a single kernel. */
struct SweepResult
{
    std::string name;
    GBps demand = 0.0;
    std::vector<double> actual;
    std::vector<double> pccs;
    std::vector<double> gables;

    /** Mean |pccs - actual| in percentage points. */
    double pccsError() const;
    /** Mean |gables - actual| in percentage points. */
    double gablesError() const;
};

/**
 * Sweep one kernel on one PU across the external ladder, collecting
 * actual (simulated) and predicted (PCCS + Gables) relative speeds.
 * The actual points are evaluated through `engine` (the process-wide
 * engine when null).
 */
SweepResult sweepKernel(const soc::SocSimulator &sim, std::size_t pu,
                        const soc::KernelProfile &kernel,
                        const model::SlowdownPredictor &pccs,
                        const model::SlowdownPredictor &gables,
                        const std::vector<GBps> &ladder,
                        runner::SweepEngine *engine = nullptr);

/** Render a set of sweep results as per-kernel curve tables. */
void printSweepReport(const std::vector<SweepResult> &results,
                      const std::vector<GBps> &ladder);

/**
 * Print the closing summary: measured average errors side by side
 * with the numbers the paper reports for the same experiment.
 */
void printErrorSummary(const std::vector<SweepResult> &results,
                       double paper_pccs, double paper_gables);

/** Start a machine-readable artifact for this experiment. */
runner::RunResult makeArtifact(const std::string &experiment,
                               const std::string &title,
                               const std::string &paper_ref,
                               const std::string &soc_name,
                               const std::string &pu_name,
                               const std::vector<GBps> &ladder = {});

/**
 * Assemble a predicted-vs-actual figure artifact from sweep results
 * (actual/pccs/gables series per kernel plus the error summary).
 */
runner::RunResult sweepArtifact(const std::string &experiment,
                                const std::string &title,
                                const std::string &paper_ref,
                                const soc::SocSimulator &sim,
                                std::size_t pu,
                                const std::vector<SweepResult> &results,
                                const std::vector<GBps> &ladder);

/**
 * Write the artifact's JSON and CSV files into $PCCS_ARTIFACT_DIR
 * (default: the working directory) and announce the JSON path.
 */
void writeArtifact(runner::RunResult artifact);

} // namespace pccs::bench

#endif // PCCS_BENCH_COMMON_HH

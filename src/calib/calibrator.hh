/**
 * @file
 * Calibrator kernels and the processor-centric calibration sweep
 * (Section 3.2 of the paper).
 *
 * Calibrators are synthetic roofline-style kernels ("load each word of
 * an array and perform some operations on it") whose operational
 * intensity is tuned so that their standalone bandwidth demand on a
 * given PU hits a requested target. A calibration sweep co-runs each
 * calibrator against a ladder of external bandwidth demands and
 * records the achieved relative speeds into the rela[n][m] matrix the
 * model-construction algorithm consumes.
 */

#ifndef PCCS_CALIB_CALIBRATOR_HH
#define PCCS_CALIB_CALIBRATOR_HH

#include <functional>
#include <string>
#include <vector>

#include "dram/system.hh"
#include "runner/sweep_engine.hh"
#include "soc/simulator.hh"

namespace pccs::calib {

/** Row locality of the synthetic streaming calibrators. */
inline constexpr double calibratorLocality = 0.97;

/**
 * Build a calibrator kernel whose standalone bandwidth demand on `pu`
 * is as close as possible to `target_bw` (GB/s). The operational
 * intensity is the end of a geometric bisection (demand is monotone in
 * intensity), solved exactly from the point where demand crosses the
 * target.
 * Targets beyond the PU's achievable draw are clipped to it.
 */
soc::KernelProfile makeCalibrator(const soc::ExecutionModel &model,
                                  const soc::PuParams &pu, GBps target_bw,
                                  double locality = calibratorLocality);

/**
 * The external-pressure ladder the paper sweeps: `steps` equal strides
 * up to `max_external`, from the first stride (rela at 0 is 100%).
 */
std::vector<GBps> externalLadder(GBps max_external, unsigned steps = 10);

/**
 * The rela[n][m] matrix of Section 3.2 plus its axes.
 *
 * rela[i][j] is the achieved relative speed (%) of the i-th smallest
 * calibrator kernel on the target PU under the j-th smallest external
 * bandwidth demand.
 */
struct CalibrationMatrix
{
    /** Standalone BW demands of the calibrators, ascending (GB/s). */
    std::vector<GBps> standaloneBw;
    /** External BW demands, ascending (GB/s); first entry > 0. */
    std::vector<GBps> externalBw;
    /** rela[i][j], percent. */
    std::vector<std::vector<double>> rela;

    std::size_t numKernels() const { return standaloneBw.size(); }
    std::size_t numExternal() const { return externalBw.size(); }
};

/** Parameters of a calibration sweep. */
struct SweepSpec
{
    /**
     * Number of calibrator kernels (rows). The region boundaries are
     * localized to half a row step, so more rows sharpen the
     * minor/normal/intensive classification.
     */
    unsigned numKernels = 10;
    /** Smallest calibrator target as a fraction of the PU's max draw. */
    double minDemandFraction = 0.1;
    /** Largest calibrator target as a fraction of the PU's max draw. */
    double maxDemandFraction = 1.0;
    /** Number of external-demand steps (columns). */
    unsigned numExternal = 10;
    /**
     * Largest external demand as a fraction of SoC peak bandwidth.
     * The paper sweeps external pressure to 100 GB/s on the 137 GB/s
     * Xavier, i.e., ~0.73 of peak.
     */
    double maxExternalFraction = 0.73;
    /** Row locality of the sweep's calibrator kernels. */
    double locality = calibratorLocality;
};

/**
 * Run the processor-centric calibration of one PU: no application
 * co-run measurements, only calibrators against calibrators. The
 * sweep's (kernel, external) points are evaluated through `engine`
 * (the process-wide engine when null) on the calling thread.
 */
CalibrationMatrix calibrate(const soc::SocSimulator &sim,
                            std::size_t pu_index,
                            const SweepSpec &spec = {},
                            runner::SweepEngine *engine = nullptr);

/** A DRAM system and its windows, for DramPoint and McSweepSpec. */
struct DramSetup
{
    /** Per-controller DRAM configuration. */
    dram::DramConfig perMcConfig = dram::table1Config();
    /** Memory controllers; with one, the mapping changes nothing. */
    unsigned numMcs = 1;
    /** Registered scheduler-policy name (one instance per MC). */
    std::string policy = "FR-FCFS";
    /** Address-to-MC mapping. */
    dram::McMapping mapping = dram::McMapping::LineInterleaved;
    /** Run loop of the simulations. */
    dram::RunMode runMode = dram::defaultRunMode();
    /** Cycles run before each measurement window. */
    Cycles warmup = 0;
    /** Measurement window in bus cycles. */
    Cycles window = 0;
};

/** One independent DRAM measurement: a setup and its cores. */
struct DramPoint : DramSetup
{
    /** Synthetic cores, added in order (generator i = entry i). */
    std::vector<dram::TrafficParams> generators;
};

/** Reads one finished point: its input index and its system. */
using DramPointReader =
    std::function<void(std::size_t, const dram::DramSystem &)>;

/**
 * Run each point (warmup, fresh window) on `engine`'s pool, global when
 * null, and call `read` with its input index and finished system. `read`
 * runs on a pool thread and must write only that index's result slot,
 * so results are bit-identical at any pool size.
 */
void runDramPoints(const std::vector<DramPoint> &points,
                   runner::SweepEngine *engine,
                   const DramPointReader &read);

/**
 * Parameters of a DRAM-substrate calibration sweep (the Section 5
 * extension: calibrating against the cycle-accurate dram::DramSystem
 * with `numMcs` controllers instead of the analytic SoC model, so the
 * rela matrix reflects the address mapping and per-MC scheduling).
 */
struct McSweepSpec : DramSetup
{
    McSweepSpec()
        : DramSetup{.numMcs = 2, .warmup = 6000, .window = 30000} {}

    /** Number of victim-demand steps (rows). */
    unsigned numKernels = 4;
    /** Smallest victim demand as a fraction of one MC's peak. */
    double minDemandFraction = 0.2;
    /** Largest victim demand as a fraction of one MC's peak. */
    double maxDemandFraction = 0.8;
    /** Number of external-demand steps (columns). */
    unsigned numExternal = 4;
    /** Largest aggregate external demand as a fraction of peak. */
    double maxExternalFraction = 0.6;
    /** Aggressor cores supplying the external demand. */
    unsigned numAggressors = 3;
    /** Base RNG seed for the synthetic address streams. */
    std::uint64_t seed = 1;
};

/**
 * Calibrate a victim core against aggressor cores on the multi-MC
 * DRAM subsystem: rela[i][j] is the victim's achieved bandwidth under
 * the j-th external demand as a percentage of its standalone achieved
 * bandwidth, at the i-th victim demand. standaloneBw holds the
 * measured standalone bandwidths, externalBw the aggregate aggressor
 * demand ladder.
 *
 * Points are independent simulations and run in parallel on `engine`
 * (global when null). Results are bit-identical for any run mode and
 * any pool size.
 */
CalibrationMatrix calibrateMultiMc(const McSweepSpec &spec = {},
                                   runner::SweepEngine *engine = nullptr);

} // namespace pccs::calib

#endif // PCCS_CALIB_CALIBRATOR_HH

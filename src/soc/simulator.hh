/**
 * @file
 * The co-run SoC simulator: runs multi-phase workloads placed on the
 * SoC's processing units over the shared memory system, advancing
 * phase by phase, and reports measured ("actual") relative speeds.
 *
 * This component plays the role the physical Jetson Xavier and
 * Snapdragon boards play in the paper's evaluation: its outputs are
 * the ground truth that PCCS and Gables predictions are scored
 * against.
 */

#ifndef PCCS_SOC_SIMULATOR_HH
#define PCCS_SOC_SIMULATOR_HH

#include <span>
#include <vector>

#include "soc/exec_model.hh"
#include "soc/soc_config.hh"

namespace pccs::soc {

/** One workload placed on one PU of the SoC. */
struct Placement
{
    std::size_t puIndex = 0;
    PhasedWorkload workload;
};

/** When to stop the co-run simulation. */
enum class StopPolicy
{
    /** Stop when the first workload finishes (the Fig. 14 protocol). */
    FirstFinish,
    /** Run until every workload finishes. */
    AllFinish,
};

/** Per-placement outcome of a co-run. */
struct PlacementOutcome
{
    double bytesCompleted = 0.0;
    /** Wall-clock the placement actually ran in the co-run, seconds. */
    double corunSeconds = 0.0;
    /** Time the completed bytes would have taken standalone, seconds. */
    double standaloneSeconds = 0.0;
    /** Achieved relative speed, % (standalone / co-run time). */
    double relativeSpeed = 0.0;
    bool finished = false;
};

/** Outcome of one co-run simulation. */
struct CorunOutcome
{
    std::vector<PlacementOutcome> placements;
    /** Simulated duration, seconds. */
    double seconds = 0.0;
};

/**
 * Epoch-driven co-run simulator over the steady-state execution model.
 */
class SocSimulator
{
  public:
    explicit SocSimulator(SocConfig config);

    const SocConfig &config() const { return config_; }
    const ExecutionModel &model() const { return model_; }

    /** Standalone profile of a kernel on a PU (by index). */
    StandaloneProfile profile(std::size_t pu_index,
                              const KernelProfile &kernel) const;

    /** Standalone profile of a kernel on the first PU of `kind`. */
    StandaloneProfile profile(PuKind kind,
                              const KernelProfile &kernel) const;

    /** Simulate the co-run of the given placements. */
    CorunOutcome run(const std::vector<Placement> &placements,
                     StopPolicy stop = StopPolicy::FirstFinish) const;

    /**
     * Sweep helper: achieved relative speed (%) of `kernel` on PU
     * `pu_index` under `external` GB/s of synthetic demand from the
     * other PUs. The 1x1 case of relativeSpeedGrid().
     */
    double relativeSpeedUnderPressure(std::size_t pu_index,
                                      const KernelProfile &kernel,
                                      GBps external) const;

    /**
     * A kernel x pressure sweep on PU `pu_index`:
     * out[i * externals.size() + j] is the relative speed (%) of
     * kernels[i] under externals[j] GB/s of synthetic demand, bit-equal
     * to relativeSpeedUnderPressure(pu_index, kernels[i], externals[j]).
     * The rate terms and solo rate are computed once per kernel (the
     * terms only when the locality changes from the previous row), the
     * external demand list once per pressure. Only the kernels'
     * intensity and locality are read. Scratch (a demand entry per PU
     * per pressure, a size per pressure, a grant per PU) stays on the
     * stack while each list fits inlineDemands entries; a longer list
     * takes one heap block per call.
     */
    void relativeSpeedGrid(std::size_t pu_index,
                           std::span<const KernelProfile> kernels,
                           std::span<const GBps> externals,
                           std::span<double> out) const;

  private:
    SocConfig config_;
    ExecutionModel model_;
};

} // namespace pccs::soc

#endif // PCCS_SOC_SIMULATOR_HH

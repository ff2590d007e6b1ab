/**
 * @file
 * Design-space exploration with slowdown models (Sections 3.4, 4.3).
 *
 * The explorer answers the paper's use-case question: how far can a
 * PU's clock (or core count) be reduced while the kernel placed on it
 * keeps its co-run performance within an allowed slowdown of the
 * full-configuration co-run performance, under a given external
 * bandwidth demand? A more accurate slowdown model picks a lower
 * (cheaper) configuration that still truly meets the requirement.
 */

#ifndef PCCS_MODEL_DESIGN_HH
#define PCCS_MODEL_DESIGN_HH

#include <functional>
#include <vector>

#include "pccs/batch.hh"
#include "pccs/predictor.hh"
#include "runner/sweep_engine.hh"
#include "soc/simulator.hh"

namespace pccs::model {

/** Outcome of a frequency (or scale) selection. */
struct DesignSelection
{
    /** Selected knob value (MHz for frequency, ratio for core scale). */
    double value = 0.0;
    /** Predicted co-run performance at the selection, bytes/s. */
    double predictedPerformance = 0.0;
    /** Reference co-run performance (full configuration), bytes/s. */
    double referencePerformance = 0.0;
};

/**
 * Explores PU configurations of a simulated SoC under co-run
 * contention, using a pluggable slowdown predictor (PCCS, Gables) or
 * the simulator itself as ground truth.
 */
class DesignExplorer
{
  public:
    /**
     * @param config the SoC whose design space is explored
     * @param engine evaluation engine for ground-truth simulator
     *        points; the process-wide engine when null
     */
    explicit DesignExplorer(const soc::SocConfig &config,
                            runner::SweepEngine *engine = nullptr);

    /**
     * Predicted co-run performance (bytes/s) of `kernel` on PU
     * `pu_index` clocked at `frequency`, under `external` GB/s of
     * demand, using `predictor` for the slowdown.
     */
    double corunPerformance(std::size_t pu_index,
                            const soc::KernelProfile &kernel,
                            MHz frequency, GBps external,
                            const SlowdownPredictor &predictor) const;

    /** Ground-truth co-run performance from the SoC simulator. */
    double corunPerformanceActual(std::size_t pu_index,
                                  const soc::KernelProfile &kernel,
                                  MHz frequency, GBps external) const;

    /**
     * Predicted co-run performance at every frequency of `grid` in
     * one pass: the standalone profiles are evaluated through the
     * engine, and the whole grid's slowdowns come
     * from a single `BatchPredictor` call (falling back to the scalar
     * adapter for predictors without a native kernel). Element i is
     * bit-exact with `corunPerformance(pu, kernel, grid[i], ...)`.
     */
    std::vector<double> corunPerformanceGrid(
        std::size_t pu_index, const soc::KernelProfile &kernel,
        const std::vector<MHz> &grid, GBps external,
        const SlowdownPredictor &predictor) const;

    /**
     * Selection strategy knob. Pruned (the default) exploits the
     * monotone co-run-performance-vs-knob structure: the reference
     * (full-configuration) performance is hoisted and computed once,
     * and the lowest acceptable candidate is found by binary search
     * over the sorted grid — O(log n) evaluations — instead of a full
     * scan. Identical selections to the full scan whenever the
     * performance curve is monotone non-decreasing in the knob (which
     * the simulator and both models guarantee; see DESIGN.md §10).
     */
    void setPruneSelection(bool on) { pruneSelection_ = on; }
    bool pruneSelection() const { return pruneSelection_; }

    /**
     * Select the lowest frequency in `grid` whose predicted co-run
     * performance stays within `allowed_slowdown_pct` percent of the
     * co-run performance at the maximum grid frequency.
     */
    DesignSelection selectFrequency(std::size_t pu_index,
                                    const soc::KernelProfile &kernel,
                                    GBps external,
                                    double allowed_slowdown_pct,
                                    const SlowdownPredictor &predictor,
                                    const std::vector<MHz> &grid) const;

    /** Ground-truth frequency selection from the SoC simulator. */
    DesignSelection selectFrequencyActual(
        std::size_t pu_index, const soc::KernelProfile &kernel,
        GBps external, double allowed_slowdown_pct,
        const std::vector<MHz> &grid) const;

    /**
     * Select the smallest core-count scale in `grid` (fractions of the
     * full PU: compute throughput and issue bandwidth scale together)
     * meeting the same co-run performance requirement.
     */
    DesignSelection selectCoreScale(std::size_t pu_index,
                                    const soc::KernelProfile &kernel,
                                    GBps external,
                                    double allowed_slowdown_pct,
                                    const SlowdownPredictor &predictor,
                                    const std::vector<double> &grid) const;

    const soc::SocConfig &config() const { return config_; }

  private:
    /** SoC with PU `pu_index` reconfigured. */
    soc::SocConfig configured(std::size_t pu_index, MHz frequency,
                              double core_scale) const;

    double performance(soc::SocConfig cfg, std::size_t pu_index,
                       const soc::KernelProfile &kernel, GBps external,
                       const SlowdownPredictor *predictor) const;

    DesignSelection selectLowest(
        const std::vector<double> &grid, double allowed_pct,
        const std::function<double(double)> &perf_at) const;

    soc::SocConfig config_;
    runner::SweepEngine *engine_;
    bool pruneSelection_ = true;
};

} // namespace pccs::model

#endif // PCCS_MODEL_DESIGN_HH

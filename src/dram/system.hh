/**
 * @file
 * Top-level DRAM simulation harness: a memory controller plus a set of
 * synthetic core traffic generators, with warmup/measure windows.
 *
 * This is the substrate for the paper's Section 2.3 validation: the
 * registered scheduling policies are run against a 16-core
 * configuration (Table 1) and per-group achieved relative speeds,
 * row-buffer hit rates, and effective bandwidths are extracted
 * (Figure 5, Table 3).
 */

#ifndef PCCS_DRAM_SYSTEM_HH
#define PCCS_DRAM_SYSTEM_HH

#include <memory>
#include <string_view>
#include <vector>

#include "dram/controller.hh"
#include "dram/run_mode.hh"
#include "dram/trace_replay.hh"
#include "dram/traffic.hh"

namespace pccs::dram {

/** A complete DRAM subsystem simulation with synthetic cores. */
class DramSystem
{
  public:
    /** @param policy registered scheduler-policy name or alias. */
    DramSystem(const DramConfig &cfg, std::string_view policy,
               const SchedulerParams &sched_params = {},
               DramRunMode mode = defaultDramRunMode());

    /** Select the run-loop implementation (bit-exact either way). */
    void setRunMode(DramRunMode mode)
    {
        mode_ = mode;
        controller_->setLazyChannelScan(mode ==
                                        DramRunMode::EventDriven);
    }
    DramRunMode runMode() const { return mode_; }

    /** Add a synthetic core; returns its index. */
    std::size_t addGenerator(const TrafficParams &params);

    /** Add a trace-replay core; returns its index among replays. */
    std::size_t addReplay(const ReplayParams &params,
                          std::vector<TraceEntry> trace);

    /**
     * Advance the simulation by `cycles` bus cycles.
     *
     * In EventDriven mode quiet stretches — cycles provably free of
     * completions, command issue, refresh progress, scheduler tick
     * events, and token-bucket issue crossings — are skipped in one
     * jump; every simulated state transition, statistic, and RNG draw
     * is bit-identical to Reference mode (see DESIGN.md and
     * tests/test_dram_equivalence.cc). On the cycles it does step,
     * sources that provably cannot issue (idleAt()) are not ticked.
     */
    void run(Cycles cycles);

    /** Start a fresh measurement window (zeroes all counters). */
    void resetMeasurement();

    /** @return current simulation cycle. */
    Cycles now() const { return now_; }

    /** @return cycles elapsed since the last resetMeasurement(). */
    Cycles windowCycles() const { return now_ - windowStart_; }

    MemoryController &controller() { return *controller_; }
    const MemoryController &controller() const { return *controller_; }

    CoreTrafficGenerator &generator(std::size_t i)
    {
        return *generators_[i];
    }
    std::size_t numGenerators() const { return generators_.size(); }

    TraceReplayGenerator &replay(std::size_t i) { return *replays_[i]; }
    std::size_t numReplays() const { return replays_.size(); }

    /** Achieved bandwidth of generator i over the current window. */
    GBps achievedBandwidth(std::size_t i) const;

    /** Effective bandwidth fraction of peak over the current window. */
    double effectiveBandwidthFraction() const;

  private:
    void runReference(Cycles end);
    void runEventDriven(Cycles end);
    /**
     * One full simulated cycle; @return true when anything happened.
     * `skip_idle` leaves sources that provably cannot issue unticked
     * (event-driven); the reference loop ticks every source.
     */
    bool stepCycle(bool skip_idle);

    DramRunMode mode_;
    std::unique_ptr<MemoryController> controller_;
    std::vector<std::unique_ptr<CoreTrafficGenerator>> generators_;
    std::vector<std::unique_ptr<TraceReplayGenerator>> replays_;
    /** Per-source completion routing (synthetic or replay). */
    std::vector<CoreTrafficGenerator *> bySource_;
    std::vector<TraceReplayGenerator *> replayBySource_;
    Cycles now_ = 0;
    Cycles windowStart_ = 0;
};

/**
 * Measure a kernel's standalone-vs-corun relative speed with a given
 * policy: convenience wrapper used by tests and benches.
 */
struct RelativeSpeedResult
{
    double relativeSpeed = 0.0;  //!< corun speed / standalone speed, in %
    GBps standaloneBandwidth = 0.0;
    GBps corunBandwidth = 0.0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_SYSTEM_HH

/**
 * @file
 * Top-level DRAM simulation harness: one or more memory controllers
 * behind an address router, synthetic core traffic generators and
 * trace replays, with warmup/measure windows.
 *
 * This is the substrate for the paper's Section 2.3 validation: the
 * registered scheduling policies are run against a 16-core
 * configuration (Table 1) and per-group achieved relative speeds,
 * row-buffer hit rates, and effective bandwidths are extracted
 * (Figure 5, Table 3). With several controllers it is the Section 5
 * extension: each controller has its own request buffer, banks, and
 * scheduling-policy instance, and a McMapping decides which one
 * serves an address.
 *
 * Two run loops advance the system (RunMode): the every-cycle
 * reference oracle, and a cycle-skipping event-driven loop fusing
 * every controller's and source's wake bound into one min-scan. The
 * two are bit-exact against each other (tests/test_dram_equivalence.cc
 * on one controller, tests/test_multimc_equivalence.cc on several). A
 * system runs on the calling thread; parallelism lives one level up,
 * where independent systems (sweep points) fan out over
 * runner::SweepEngine.
 */

#ifndef PCCS_DRAM_SYSTEM_HH
#define PCCS_DRAM_SYSTEM_HH

#include <memory>
#include <string_view>
#include <vector>

#include "dram/controller.hh"
#include "dram/multi_mc.hh"
#include "dram/run_mode.hh"
#include "dram/trace_replay.hh"
#include "dram/traffic.hh"

namespace pccs::dram {

/**
 * A complete DRAM subsystem simulation with synthetic cores. As a
 * MemoryPort it is the router: enqueue() hands a request to the
 * controller route() picks, at its localAddress(). Sources issue
 * through the router only when there is more than one controller; a
 * lone controller is their port directly.
 */
class DramSystem : public MemoryPort
{
  public:
    /**
     * One controller.
     * @param policy registered scheduler-policy name or alias.
     */
    DramSystem(const DramConfig &cfg, std::string_view policy,
               const SchedulerParams &sched_params = {},
               RunMode mode = defaultRunMode());

    /**
     * @param per_mc_cfg configuration of each controller (so total
     *        capacity = num_mcs x per_mc_cfg.peakBandwidth())
     * @param num_mcs number of controllers, at least one
     * @param policy registered scheduler-policy name (one instance
     *        per MC — MCs do not share scheduler state, the
     *        coordination question the paper raises)
     */
    DramSystem(const DramConfig &per_mc_cfg, unsigned num_mcs,
               std::string_view policy, McMapping mapping,
               const SchedulerParams &sched_params = {},
               RunMode mode = defaultRunMode());

    DramSystem(const DramSystem &) = delete;
    DramSystem &operator=(const DramSystem &) = delete;

    // MemoryPort
    bool enqueue(unsigned source, Addr addr, bool is_write,
                 Cycles now) override;
    /** Routed like enqueue(): the owning MC's queue for `addr`. */
    const RequestQueue &requestQueue(Addr addr) const override;
    unsigned lineBytes() const override { return lineBytes_; }
    double cycleSeconds() const override
    {
        return mcs_[0]->cycleSeconds();
    }
    Addr addressSpan() const override
    {
        return perMcSpan_ * numControllers();
    }

    /**
     * Select the run loop. Safe at any cycle boundary (between run()
     * calls): both loops leave identical state behind. Also toggles
     * the controllers' lazy channel scan (on for the event-driven
     * loop, off for the reference specification).
     */
    void setRunMode(RunMode mode);
    RunMode runMode() const { return mode_; }

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
     * events, and token-bucket issue crossings on every controller and
     * source — are skipped in one jump; every simulated state
     * transition, statistic, and RNG draw is bit-identical to
     * Reference mode (see DESIGN.md). On the cycles it does step,
     * sources that provably cannot issue (idleAt()) are not ticked.
     */
    void run(Cycles cycles);

    /** Start a fresh measurement window (zeroes all counters). */
    void resetMeasurement();

    /** @return current simulation cycle. */
    Cycles now() const { return now_; }

    /** @return cycles elapsed since the last resetMeasurement(). */
    Cycles windowCycles() const { return now_ - windowStart_; }

    unsigned numControllers() const
    {
        return static_cast<unsigned>(mcs_.size());
    }
    MemoryController &controller(unsigned mc = 0) { return *mcs_[mc]; }
    const MemoryController &controller(unsigned mc = 0) const
    {
        return *mcs_[mc];
    }

    CoreTrafficGenerator &generator(std::size_t i)
    {
        return *generators_[i];
    }
    const CoreTrafficGenerator &generator(std::size_t i) const
    {
        return *generators_[i];
    }
    std::size_t numGenerators() const { return generators_.size(); }

    TraceReplayGenerator &replay(std::size_t i) { return *replays_[i]; }
    const TraceReplayGenerator &replay(std::size_t i) const
    {
        return *replays_[i];
    }
    std::size_t numReplays() const { return replays_.size(); }

    /** Achieved bandwidth of generator i over the current window. */
    GBps achievedBandwidth(std::size_t i) const;

    /**
     * Effective bandwidth fraction of peak over the current window,
     * averaged over the controllers.
     */
    double effectiveBandwidthFraction() const;

    /** Row-buffer hit rate over the window, all controllers pooled. */
    double rowBufferHitRate() const;

    /** Bytes served by controller `mc` during the window. */
    std::uint64_t bytesServed(unsigned mc) const
    {
        return mcs_[mc]->stats().bytesTransferred;
    }

    /** @return which MC serves `addr` under the configured mapping. */
    unsigned route(Addr addr) const;

    /** @return the MC-local address for a global address. */
    Addr localAddress(Addr addr) const;

  private:
    /** What sources issue into: the lone controller, else the router. */
    MemoryPort &sourcePort()
    {
        if (mcs_.size() == 1)
            return *mcs_[0];
        return *this;
    }
    /** Assert that `source` is in range and not yet taken. */
    void checkFreeSource(unsigned source) const;
    void runReference(Cycles end);
    void runEventDriven(Cycles end);
    /**
     * One full simulated cycle; @return true when anything happened.
     * `skip_idle` leaves sources that provably cannot issue unticked
     * (event-driven); the reference loop ticks every source.
     */
    bool stepCycle(bool skip_idle);

    McMapping mapping_;
    RunMode mode_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;
    unsigned lineBytes_;
    Addr perMcSpan_;
    std::vector<std::unique_ptr<CoreTrafficGenerator>> generators_;
    std::vector<std::unique_ptr<TraceReplayGenerator>> replays_;
    /** Per-source completion routing (synthetic or replay). */
    std::vector<CoreTrafficGenerator *> bySource_;
    std::vector<TraceReplayGenerator *> replayBySource_;
    Cycles now_ = 0;
    Cycles windowStart_ = 0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_SYSTEM_HH

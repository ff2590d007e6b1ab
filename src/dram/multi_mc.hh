/**
 * @file
 * Multi-memory-controller DRAM subsystem (the Section 5 extension):
 * several independent memory controllers — each with its own request
 * buffer, banks, and scheduling-policy instance — behind an address
 * router.
 *
 * Two address-to-MC mappings are provided, matching the cases the
 * paper discusses:
 *
 *  - LineInterleaved: consecutive cache lines rotate across MCs (the
 *    wide-bus construction recent HSM-SoCs use; applications see the
 *    aggregate bandwidth without placement effort);
 *  - RangePartitioned: each MC owns a contiguous slice of the address
 *    space (sources whose footprints land in different slices do not
 *    interfere at all — the isolation/coordination case the paper
 *    says PCCS can be extended to by considering the mapping).
 *
 * Two run loops advance the subsystem (McRunMode): the lockstep
 * reference oracle, and a cycle-skipping event-driven loop fusing
 * every controller's and generator's wake bound into one min-scan.
 * The two are bit-exact against each other
 * (tests/test_multimc_equivalence.cc). A system runs on the calling
 * thread; parallelism lives one level up, where independent systems
 * (sweep points) fan out over runner::SweepEngine.
 */

#ifndef PCCS_DRAM_MULTI_MC_HH
#define PCCS_DRAM_MULTI_MC_HH

#include <memory>
#include <string_view>
#include <vector>

#include "dram/controller.hh"
#include "dram/run_mode.hh"
#include "dram/traffic.hh"

namespace pccs::dram {

/** How physical addresses map onto the memory controllers. */
enum class McMapping
{
    LineInterleaved,
    RangePartitioned,
};

/** @return display name of a mapping. */
const char *mcMappingName(McMapping mapping);

/**
 * A set of memory controllers behind one port, plus synthetic cores.
 */
class MultiMcSystem : public MemoryPort
{
  public:
    /**
     * @param per_mc_cfg configuration of each controller (so total
     *        capacity = num_mcs x per_mc_cfg.peakBandwidth())
     * @param num_mcs number of controllers
     * @param policy registered scheduler-policy name (one instance
     *        per MC — MCs do not share scheduler state, the
     *        coordination question the paper raises)
     * @param mode which run loop advances the subsystem
     */
    MultiMcSystem(const DramConfig &per_mc_cfg, unsigned num_mcs,
                  std::string_view policy, McMapping mapping,
                  const SchedulerParams &sched_params = {},
                  McRunMode mode = defaultMcRunMode());

    // MemoryPort
    bool enqueue(unsigned source, Addr addr, bool is_write,
                 Cycles now) override;
    /** Routed like enqueue(): the owning MC's queue for `addr`. */
    const RequestQueue &requestQueue(Addr addr) const override;
    unsigned lineBytes() const override;
    double cycleSeconds() const override;
    Addr addressSpan() const override;

    /** Add a synthetic core; returns its index. */
    std::size_t addGenerator(const TrafficParams &params);

    /** Advance the whole subsystem by `cycles` bus cycles. */
    void run(Cycles cycles);

    /**
     * Switch run loops. Safe at any cycle boundary (between run()
     * calls): all modes leave identical state behind. Also toggles the
     * controllers' lazy channel scan (on for the fast modes, off for
     * the lockstep specification).
     */
    void setRunMode(McRunMode mode);

    McRunMode runMode() const { return mode_; }

    /** Start a fresh measurement window. */
    void resetMeasurement();

    Cycles now() const { return now_; }
    Cycles windowCycles() const { return now_ - windowStart_; }

    unsigned numControllers() const
    {
        return static_cast<unsigned>(mcs_.size());
    }
    MemoryController &controller(unsigned mc) { return *mcs_[mc]; }
    const MemoryController &controller(unsigned mc) const
    {
        return *mcs_[mc];
    }

    CoreTrafficGenerator &generator(std::size_t i)
    {
        return *generators_[i];
    }

    std::size_t numGenerators() const { return generators_.size(); }

    /** Achieved bandwidth of generator i over the window, GB/s. */
    GBps achievedBandwidth(std::size_t i) const;

    /** Aggregate effective bandwidth fraction over the window. */
    double effectiveBandwidthFraction() const;

    /** Aggregate row-buffer hit rate over the window. */
    double rowBufferHitRate() const;

    /** Bytes served by controller `mc` during the window. */
    std::uint64_t bytesServed(unsigned mc) const;

    /** @return which MC serves `addr` under the configured mapping. */
    unsigned route(Addr addr) const;

    /** @return the MC-local address for a global address. */
    Addr localAddress(Addr addr) const;

  private:
    /**
     * One cycle at now_; @return true when anything moved. `skip_idle`
     * leaves sources that provably cannot issue unticked
     * (event-driven); lockstep ticks every source.
     */
    bool stepCycle(bool skip_idle);
    /** The original per-cycle loop (the equivalence oracle). */
    void runLockstep(Cycles end);
    /** Single-threaded cycle-skipping loop (fused wake min-scan). */
    void runEventDriven(Cycles end);
    /** Hand a completed request back to its source's generator. */
    void deliver(const Request &req);

    DramConfig perMcCfg_;
    McMapping mapping_;
    McRunMode mode_;
    std::vector<std::unique_ptr<MemoryController>> mcs_;
    std::vector<std::unique_ptr<CoreTrafficGenerator>> generators_;
    std::vector<CoreTrafficGenerator *> bySource_;
    Addr perMcSpan_;
    Cycles now_ = 0;
    Cycles windowStart_ = 0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_MULTI_MC_HH

/**
 * @file
 * The closed-loop contention-aware QoS scheduler: an online
 * admission-and-placement controller that turns PCCS slowdown
 * predictions into scheduling decisions, the way the MISE line of
 * work drives QoS from slowdown estimates.
 *
 * Jobs arrive as (kernel profile, slowdown SLO, optional deadline).
 * For each arrival the controller picks a {PU, frequency} pair via
 * the same batched evaluation paths the design explorer uses — the
 * standalone profiles of every candidate clock come from one sweep
 * (corunPerformanceGrid stage 1) and the whole grid's
 * slowdowns from one SoA `relativeSpeedBroadcast` call — and admits
 * the job only if its own predicted slowdown and every resident job's
 * predicted slowdown stay within their SLOs. Arrivals that do not fit
 * wait in a bounded FIFO queue and are promoted on departures;
 * arrivals that find the queue full are rejected.
 *
 * Contention semantics: a resident job's model input is
 * x = its standalone bandwidth demand at its assigned clock, and
 * y = the summed standalone demands of every *other* resident job —
 * the processor-centric formulation of the paper. With the default
 * capacity of one job per PU this is exactly the scenario the SoC
 * simulator grounds (one kernel per PU over the shared memory
 * system), which is what lets `sched::validateSchedule` replay an
 * accepted schedule through the simulator and measure the true
 * SLO-violation rate.
 *
 * The per-decision work is incremental: per-kernel-class frequency
 * grids (demands and rates) are computed once and cached, so a
 * decision costs one broadcast over the candidate PU's grid plus one
 * small SoA `relativeSpeedBatch` per PU with residents — no simulator
 * calls, no allocation in steady state.
 */

#ifndef PCCS_SCHED_QOS_HH
#define PCCS_SCHED_QOS_HH

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pccs/model.hh"
#include "pccs/placement.hh"
#include "runner/sweep_engine.hh"
#include "sched/job_table.hh"
#include "soc/simulator.hh"

namespace pccs::sched {

/** How strictly admission defends the slowdown SLOs. */
enum class AdmissionPolicy {
    /** Admit only when every SLO (new and resident) holds. */
    StrictSlo,
    /** Admit whenever a PU has capacity; count expected misses. */
    BestEffort,
    /** New job strict; residents may stretch to slack * SLO
     *  (MISE-QoS style: protect the arrival, bound the damage). */
    FairnessWeighted,
};

/** @return the policy for a wire name, or nullopt when unknown. */
std::optional<AdmissionPolicy>
admissionPolicyFromName(std::string_view name);

/** @return the wire name of a policy ("strict", "best-effort", ...). */
const char *admissionPolicyName(AdmissionPolicy policy);

/** Configuration of a QosController. */
struct SchedOptions
{
    AdmissionPolicy policy = AdmissionPolicy::StrictSlo;
    /** PU choice among feasible candidates. */
    model::PlacementObjective objective =
        model::PlacementObjective::MaxMinRelativeSpeed;
    /** Frequency-grid points per PU (plus the max clock itself). */
    unsigned gridSteps = 16;
    /** Resident jobs per PU; 1 matches the simulator's protocol. */
    std::size_t puCapacity = 1;
    /** Waiting jobs before arrivals are rejected outright. */
    std::size_t maxQueued = 64;
    /**
     * Admission safety margin: predicted slowdowns are inflated by
     * this fraction before the SLO comparison, absorbing the model's
     * few-percent error against the simulator ground truth.
     */
    double safetyMargin = 0.0;
    /** FairnessWeighted: residents may reach slack * their SLO. */
    double fairnessSlack = 1.15;
    /** Record the admit/complete event log for oracle replay. */
    bool recordEvents = true;
};

/** One arrival: what to run and how much slowdown it tolerates. */
struct JobRequest
{
    /** Client label (diagnostics; empty is fine). */
    std::string name;
    /**
     * The kernel, either uniform across PUs (`kernel`) or per PU
     * (`options`, parallel to SocConfig::pus, nullopt marking PUs
     * that cannot run this job — e.g. Rodinia kernels on the DLA).
     * When `options` is non-empty it wins.
     */
    soc::KernelProfile kernel;
    std::vector<std::optional<soc::KernelProfile>> options;
    /** Max tolerated slowdown factor vs full-clock standalone, >= 1. */
    double sloSlowdown = 1.5;
    /** Optional deadline, seconds (0 = none; recorded, not enforced). */
    double deadlineSeconds = 0.0;
    /** Pin to one PU index, or -1 to let the controller place. */
    int puIndex = -1;
};

/** What the controller decided about one arrival. */
enum class DecisionKind { Admitted, Queued, Rejected };

/** @return the wire name of a decision ("admitted", ...). */
const char *decisionKindName(DecisionKind kind);

/** Outcome of one submit (or one queue promotion). */
struct Decision
{
    DecisionKind kind = DecisionKind::Rejected;
    /** Valid when admitted. */
    JobHandle handle = kNoJob;
    std::size_t puIndex = 0;
    MHz frequencyMhz = 0.0;
    /** Predicted slowdown of the admitted job (with no margin). */
    double predictedSlowdown = 0.0;
    /** min over SLO-holders of (slo - predicted)/slo after admit. */
    double worstSlack = 0.0;
    /** Diagnostic for queued/rejected outcomes. */
    std::string reason;
};

/** Outcome of completing a job. */
struct Completion
{
    /** False when the handle was stale (already completed). */
    bool ok = false;
    /** Queued jobs admitted by the departure, in queue order. */
    std::vector<Decision> promoted;
};

/** One entry of the oracle-replayable schedule log. */
struct SchedEvent
{
    enum class Kind { Admit, Complete } kind = Kind::Admit;
    /** Job sequence number (pairs Admit with its Complete). */
    std::uint64_t seq = 0;
    /** @name Admit payload (snapshot of the placed job) @{ */
    std::size_t puIndex = 0;
    MHz frequencyMhz = 0.0;
    soc::KernelProfile kernel;
    GBps demand = 0.0;
    double rate = 0.0;
    double fullRate = 0.0;
    double sloSlowdown = 1.0;
    /** @} */
};

/** Monotone counters of one controller. */
struct SchedStats
{
    std::uint64_t submitted = 0;
    std::uint64_t admitted = 0;
    std::uint64_t queued = 0;
    std::uint64_t rejected = 0;
    std::uint64_t completed = 0;
    std::uint64_t promoted = 0;
    /** Admission decisions evaluated (submits + promotion retries). */
    std::uint64_t decisions = 0;
    /** SoA model points evaluated across all decisions. */
    std::uint64_t modelPoints = 0;
    /** BestEffort admissions whose predicted slowdown missed an SLO. */
    std::uint64_t expectedViolations = 0;
};

/**
 * The admission-and-placement controller of one SoC. Not thread-safe;
 * callers (the serve dispatcher, the CLI, benches) serialize access.
 */
class QosController
{
  public:
    /**
     * @param config the SoC whose PUs are scheduled
     * @param engine evaluation engine for the grid precomputes (the
     *        process-wide engine when null)
     */
    explicit QosController(const soc::SocConfig &config,
                           runner::SweepEngine *engine = nullptr,
                           SchedOptions options = {});

    /** Decide one arrival: admit (placing it), queue, or reject. */
    Decision submit(const JobRequest &request);

    /** Complete a resident job, promoting queued jobs that now fit. */
    Completion complete(JobHandle handle);

    /** @return the resident job, or nullptr for stale handles. */
    const Job *job(JobHandle handle) const { return jobs_.get(handle); }

    /** Resident jobs. */
    std::size_t residentCount() const { return jobs_.size(); }

    /** Waiting (queued) jobs. */
    std::size_t queuedCount() const { return queue_.size(); }

    /** Summed standalone demand of all residents, GB/s. */
    GBps totalDemand() const { return totalDemand_; }

    /** Resident jobs on PU `pu`. */
    const std::vector<JobHandle> &residents(std::size_t pu) const
    {
        return residents_[pu];
    }

    const SchedStats &stats() const { return stats_; }
    const SchedOptions &options() const { return options_; }
    const soc::SocConfig &config() const { return config_; }

    /** The admit/complete log (empty when recordEvents is off). */
    const std::vector<SchedEvent> &events() const { return events_; }

    /** The candidate clock grid of PU `pu` (ascending, max last). */
    const std::vector<MHz> &frequencyGrid(std::size_t pu) const
    {
        return grids_[pu];
    }

    /** The PU's slowdown model (calibrated lazily, then cached). */
    const model::PccsModel &puModel(std::size_t pu);

    /**
     * Predicted co-run performance (bytes/s) of `request`'s kernel at
     * every clock of PU `pu`'s grid under `external` GB/s — the
     * batched primitive every admission decision runs on. Bit-exact
     * with `DesignExplorer::corunPerformanceGrid` over the same grid
     * and model (tests enforce the parity).
     * @return false when the request cannot run on that PU
     */
    bool corunPerformanceGrid(const JobRequest &request,
                              std::size_t pu, GBps external,
                              std::vector<double> &out);

    /** Visit every resident job. */
    template <typename Fn> void forEachJob(Fn &&fn) const
    {
        jobs_.forEach(fn);
    }

  private:
    /** Cached per-(class, PU) frequency-grid characterization. */
    struct GridCache
    {
        bool built = false;
        bool feasible = false;
        /** Standalone demand per grid clock, GB/s. */
        std::vector<GBps> demand;
        /** Standalone rate per grid clock, bytes/s. */
        std::vector<double> rate;
    };

    /** One interned kernel class. */
    struct KernelClass
    {
        std::string key;
        /** Per-PU kernel (nullopt = cannot run there). */
        std::vector<std::optional<soc::KernelProfile>> kernels;
        std::vector<GridCache> perPu;
    };

    /** A queued arrival. */
    struct QueuedJob
    {
        JobRequest request;
        std::size_t classId = 0;
    };

    /** Scored candidate placement of one decision. */
    struct Candidate
    {
        bool found = false;
        std::size_t puIndex = 0;
        std::size_t freqIndex = 0;
        double predictedSlowdown = 0.0;
        double worstSlack = 0.0;
        double score = 0.0;
        bool violatesSlo = false;
    };

    std::size_t internClass(const JobRequest &request);
    GridCache &gridCache(std::size_t class_id, std::size_t pu);
    void buildGrid(const soc::KernelProfile &kernel, std::size_t pu,
                   GridCache &cache);

    /** Evaluate one placement candidate on PU `pu` (no mutation). */
    Candidate evaluateOn(std::size_t class_id, double slo,
                         std::size_t pu);

    /** The decision core shared by submit and queue promotion. */
    Decision decide(const JobRequest &request, std::size_t class_id);

    /** Materialize an admitted candidate into the job table. */
    Decision admit(const JobRequest &request, std::size_t class_id,
                   const Candidate &candidate);

    /** Refresh every resident's predicted slowdown (batched per PU). */
    void refreshResidents();

    soc::SocConfig config_;
    runner::SweepEngine *engine_;
    SchedOptions options_;
    soc::SocSimulator sim_;

    std::vector<std::vector<MHz>> grids_;
    std::vector<std::unique_ptr<model::PccsModel>> models_;

    /** Transparent comparator: lookups by string_view don't allocate. */
    std::map<std::string, std::size_t, std::less<>> classIds_;
    std::vector<KernelClass> classes_;

    JobTable jobs_;
    std::vector<std::vector<JobHandle>> residents_;
    GBps totalDemand_ = 0.0;
    std::deque<QueuedJob> queue_;

    std::uint64_t nextSeq_ = 1;
    SchedStats stats_;
    std::vector<SchedEvent> events_;

    /** @name decision scratch (reused; no steady-state allocation) @{ */
    std::vector<double> rsGrid_;
    std::vector<double> resX_, resY_, resRs_;
    std::string keyScratch_;
    /** @} */
};

} // namespace pccs::sched

#endif // PCCS_SCHED_QOS_HH

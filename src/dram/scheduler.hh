/**
 * @file
 * Memory-controller scheduling policy interface and registry.
 *
 * The controller presents the scheduler with the per-channel request
 * queue each time a command slot is free; the scheduler returns the
 * index of the request to advance. The concrete policies register
 * themselves with a name-keyed registry (PolicyInfo): the five the
 * paper evaluates in Section 2.3 (Table 2) — FCFS, FR-FCFS, ATLAS,
 * TCM, SMS — plus the extension policies BLISS, PARBS, and MEDUSA.
 *
 * Adding a policy is a one-file affair: derive a `final` class P from
 * KeyedScheduler<P> in a new sched_<name>.cc and write three parts:
 *  - key(): the policy's priority rule over one QueueEntryView, read
 *    only from the entry and the policy's own state (or "not
 *    eligible"). The reference loop's pick() is the one argmax over
 *    it, in KeyedScheduler; no policy writes its own.
 *  - optional state steps, prepare() before the choice and commit()
 *    after it: every decision-time state change and RNG draw (SMS's
 *    batch reselection, PARBS's batch formation), written once over
 *    the request queue and called by both controller loops.
 *  - fastPick(): the same choice over the bank masks, pure.
 * Then set the compile-time constants it differs in
 * (kPreservesRowHits, kNeedsTickEvents, kUsesSourceTier — see
 * Scheduler), and register it with registerPolicy<P>(name,
 * aliases) from dram/policy_controller.hh. That call compiles the
 * controller's evaluate-and-issue path for P (PolicyController<P>,
 * with direct calls into P and the request queues' per-source tier
 * kept only when kUsesSourceTier) and derives the PolicyInfo
 * capability flags from the constants. Archive-linked builtins call
 * it from a register hook listed in scheduler.cc's builtin table;
 * external code calls it directly at any time before the first lookup.
 * Every consumer — systems, calibration, benches, the CLI, the
 * equivalence tests — enumerates schedulerNames() instead of a
 * hard-coded list, so the new policy flows through all of them.
 */

#ifndef PCCS_DRAM_SCHEDULER_HH
#define PCCS_DRAM_SCHEDULER_HH

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dram/request.hh"
#include "dram/request_queue.hh"

namespace pccs::dram {

/** Sentinel "no pending event" cycle for the event-driven core. */
inline constexpr Cycles kNoEvent = ~Cycles{0};

/** One schedulable request as the policy sees it. */
struct QueueEntryView
{
    const Request *req = nullptr;
    /** True if the next command this request needs can issue now. */
    bool issuable = false;
    /** True if the request's row is currently open in its bank. */
    bool rowHit = false;
};

/**
 * The saturated-path alternative to a materialized QueueEntryView
 * span: per-bank legality bitmasks over the queue's incrementally
 * maintained candidate lists. The controller classifies each occupied
 * bank once (all of a bank's read hits share one CAS-legality bound,
 * all write hits another, all conflict PREs a third, all closed-bank
 * ACTs a fourth), so a policy's fastPick() works on whole banks via
 * countr_zero loops instead of walking entries.
 *
 * Mask semantics at the evaluation cycle `now`:
 *  - hitReadMask / hitWriteMask: banks whose pending read / write
 *    open-row hits can issue their CAS now;
 *  - preMask: banks whose (unmasked) row-conflict PRE is legal now —
 *    for row-hit-preserving policies a bank with pending hits never
 *    appears here, so per bank the hit and non-hit candidate classes
 *    are mutually exclusive;
 *  - actMask: closed banks whose ACT is legal now (rank windows
 *    included).
 */
struct FastIssueView
{
    const RequestQueue *queue = nullptr;
    std::uint64_t openRowMask = 0;
    std::uint64_t hitReadMask = 0;
    std::uint64_t hitWriteMask = 0;
    std::uint64_t preMask = 0;
    std::uint64_t actMask = 0;

    /** Banks with an issuable CAS / an issuable PRE-or-ACT. */
    std::uint64_t hitBanks() const { return hitReadMask | hitWriteMask; }
    std::uint64_t otherBanks() const { return preMask | actMask; }

    /**
     * Oldest issuable open-row hit of bank `b` (min arrival serial of
     * the issuable read/write hit-list heads), or -1.
     */
    int oldestHitSlot(unsigned b) const
    {
        const std::uint64_t bit = std::uint64_t{1} << b;
        const int rd = (hitReadMask & bit) ? queue->hitHeadRead(b) : -1;
        const int wr = (hitWriteMask & bit) ? queue->hitHeadWrite(b) : -1;
        if (rd < 0)
            return wr;
        if (wr < 0)
            return rd;
        return queue->serial(rd) < queue->serial(wr) ? rd : wr;
    }

    /**
     * Oldest non-hit candidate of bank `b` — valid for banks in
     * otherBanks() under a row-hit-preserving policy (such a bank has
     * no pending hits, so its FIFO head *is* the oldest PRE/ACT
     * candidate).
     */
    int oldestOtherSlot(unsigned b) const { return queue->bankHead(b); }

    /** Exact per-slot issuability (slot must be queued). */
    bool slotIssuable(int s) const
    {
        const std::uint64_t bit = std::uint64_t{1} << queue->bank(s);
        if (queue->isHit(s))
            return (queue->isWrite(s) ? hitWriteMask : hitReadMask) &
                   bit;
        if (openRowMask & bit)
            return (preMask & bit) != 0;
        return (actMask & bit) != 0;
    }

    /**
     * Source-tier algebra (rank-based policies). Valid only under a
     * row-hit-preserving policy: preservation makes a bank's hit and
     * non-hit candidate classes mutually exclusive, so a bank in
     * preMask/actMask has *only* issuable non-hit entries and the
     * per-source masks intersect cleanly with the legality masks.
     */

    /** Banks where source `src` has an issuable open-row hit. */
    std::uint64_t sourceIssuableHitBanks(unsigned src) const
    {
        return (queue->sourceHitReadMask(src) & hitReadMask) |
               (queue->sourceHitWriteMask(src) & hitWriteMask);
    }

    /** Banks where source `src` has an issuable PRE/ACT candidate. */
    std::uint64_t sourceIssuableOtherBanks(unsigned src) const
    {
        return queue->sourceOccupiedMask(src) & (preMask | actMask);
    }

    /**
     * Sources with at least one issuable entry, one bit per source:
     * the OR of the queue's per-bank source masks over the issuable
     * banks of each class.
     */
    std::uint64_t issuableSourceMask() const
    {
        std::uint64_t out = 0;
        for (std::uint64_t m = hitReadMask; m; m &= m - 1) {
            out |= queue->bankHitReadSourceMask(
                static_cast<unsigned>(std::countr_zero(m)));
        }
        for (std::uint64_t m = hitWriteMask; m; m &= m - 1) {
            out |= queue->bankHitWriteSourceMask(
                static_cast<unsigned>(std::countr_zero(m)));
        }
        for (std::uint64_t m = otherBanks(); m; m &= m - 1) {
            out |= queue->bankSourceMask(
                static_cast<unsigned>(std::countr_zero(m)));
        }
        return out;
    }

    /**
     * Oldest issuable open-row hit of source `src` (a walk of its
     * arrival FIFO, guarded by the mask check), or -1.
     */
    int oldestIssuableHitOfSource(unsigned src) const
    {
        if (!sourceIssuableHitBanks(src))
            return -1;
        for (int s = queue->sourceHead(src); s >= 0;
             s = queue->sourceNext(s)) {
            if (queue->isHit(s) && slotIssuable(s))
                return s;
        }
        return -1;
    }

    /** Oldest issuable entry (hit or not) of source `src`, or -1. */
    int oldestIssuableOfSource(unsigned src) const
    {
        if (!(sourceIssuableHitBanks(src) |
              sourceIssuableOtherBanks(src)))
            return -1;
        for (int s = queue->sourceHead(src); s >= 0;
             s = queue->sourceNext(s)) {
            if (slotIssuable(s))
                return s;
        }
        return -1;
    }
};

/**
 * Oldest issuable row hit, falling back to the oldest issuable
 * non-hit, over the banks selected by `filter` — the FR-FCFS decision
 * (row hit first, then age; age == min arrival serial, which matches
 * the keys' arrival-then-walk-order tie-break), shared by the
 * policies' fastPick() tiers.
 * @return the chosen slot, or -1 when no filtered bank has a candidate.
 */
inline int
fastPickOldestHitElseOldest(const FastIssueView &v,
                            std::uint64_t filter = ~std::uint64_t{0})
{
    int best = -1;
    std::uint64_t best_serial = 0;
    for (std::uint64_t m = v.hitBanks() & filter; m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestHitSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    if (best >= 0)
        return best;
    for (std::uint64_t m = v.otherBanks() & filter; m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestOtherSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    return best;
}

/**
 * The same oldest-hit-else-oldest decision restricted to a *source*
 * tier: the oldest issuable hit of any source in `sources`, else the
 * oldest issuable entry of any of them. This is the inner step of
 * every rank-ordered policy (ATLAS rank tier, TCM cluster tier, BLISS
 * blacklist tier, PARBS within-batch rank) once the tier's member set
 * is known. Callers whose tier covers every issuable source should
 * take fastPickOldestHitElseOldest() instead — the bank-level walk
 * touches O(occupied banks) list heads, no per-source FIFOs.
 * Requires a row-hit-preserving policy (see the source-tier algebra
 * note on FastIssueView).
 * @return the chosen slot, or -1 when no tier source has a candidate.
 */
inline int
fastPickOldestHitElseOldestOfSources(const FastIssueView &v,
                                     std::uint64_t sources)
{
    int best = -1;
    std::uint64_t best_serial = 0;
    for (std::uint64_t m = sources; m; m &= m - 1) {
        const unsigned src =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestIssuableHitOfSource(src);
        if (s < 0)
            continue;
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    if (best >= 0)
        return best;
    for (std::uint64_t m = sources; m; m &= m - 1) {
        const unsigned src =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestIssuableOfSource(src);
        if (s < 0)
            continue;
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    return best;
}

/**
 * Oldest issuable entry regardless of hit status — SMS's
 * work-conserving fallback when the in-flight batch owner cannot
 * issue. Per issuable bank the oldest candidate is a list head (hit
 * heads for CAS banks, the FIFO head for PRE/ACT banks under a
 * preserving policy), so the global minimum is a min over heads.
 * @return the chosen slot, or -1 when nothing is issuable.
 */
inline int
fastPickOldestIssuable(const FastIssueView &v)
{
    int best = -1;
    std::uint64_t best_serial = 0;
    for (std::uint64_t m = v.hitBanks(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestHitSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    for (std::uint64_t m = v.otherBanks(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const int s = v.oldestOtherSlot(b);
        const std::uint64_t ser = v.queue->serial(s);
        if (best < 0 || ser < best_serial) {
            best = s;
            best_serial = ser;
        }
    }
    return best;
}

/**
 * Abstract scheduling policy.
 *
 * One scheduler instance serves all channels; policy state that is
 * logically per-source (attained service, clusters, batches,
 * blacklists) is global, which mirrors how ATLAS coordinates across
 * memory controllers.
 *
 * The controller holds its policy as the concrete `final` type (see
 * dram/policy_controller.hh), so the virtuals below are the interface
 * for tests and tooling; the controller's calls bind statically. A
 * policy states its capabilities as compile-time constants, shadowing
 * the defaults here; the controller and the registry read only these.
 */
class Scheduler
{
  public:
    /**
     * Conflicting PREs are masked while the open row has pending hits.
     * Locality-aware policies keep a bank's row open while requests to
     * it are pending; FCFS is defined by *not* doing this: it
     * schedules chronologically with no locality awareness, which is
     * what collapses its row-buffer hit rate (Table 3).
     */
    static constexpr bool kPreservesRowHits = true;
    /** nextTickEvent() is ever != kNoEvent (ATLAS/TCM/BLISS). */
    static constexpr bool kNeedsTickEvents = false;
    /**
     * fastPick(), pickPending() or a state step read the queue's
     * per-source tier (source FIFOs, per-source masks, FastIssueView's
     * source-tier algebra). When false the controller's queues never
     * maintain it.
     */
    static constexpr bool kUsesSourceTier = false;

    virtual ~Scheduler() = default;

    /** @return the policy's display name. */
    virtual const char *name() const = 0;

    /**
     * Called before any pick on every *simulated* cycle the controller
     * processes; policies use it to run quantum updates (ATLAS/TCM),
     * shuffles, or blacklist clears (BLISS). The event-driven core
     * skips cycles wholesale, so a policy whose tick() is not a no-op
     * at some future cycle must report that cycle through
     * nextTickEvent() — otherwise the skip would jump over the state
     * update the reference core performs.
     */
    virtual void tick(Cycles now) { (void)now; }

    /**
     * Earliest future cycle at which tick() stops being a no-op
     * (quantum boundary, shuffle deadline, blacklist clear, ...), or
     * kNoEvent when tick() never does anything. The event-driven core
     * includes this in its next-event computation so tick() fires on
     * exactly the same cycles as under the per-cycle reference loop.
     */
    virtual Cycles nextTickEvent() const { return kNoEvent; }

    /** Notify that a request entered the request buffer. */
    virtual void onEnqueue(const Request &req) { (void)req; }

    /**
     * Notify that a request's CAS issued (it leaves the queue) and its
     * source received `bytes` of service at cycle `now`.
     */
    virtual void onService(const Request &req, Cycles now, unsigned bytes)
    {
        (void)req; (void)now; (void)bytes;
    }

    /**
     * True when the next decision on `channel` could act — change
     * state in prepare()/commit(), draw RNG, or choose after having
     * declined — even though neither the queue `q` nor its issuable
     * set has changed since the last one. The event-driven core
     * decides on a cycle with nothing issuable, or re-evaluates a
     * channel on the cycle after an issue, enqueue, or declined
     * evaluation, only while this holds; otherwise it sleeps until
     * the next command-legality edge. The default (false) fits every
     * work-conserving policy without state steps. SMS and PARBS
     * override it: their prepare() rebatches only when a batch is
     * due, and SMS serves the oldest issuable entry on the cycle
     * after a reselection whose owner could not issue.
     */
    virtual bool pickPending(unsigned channel, const RequestQueue &q) const
    {
        (void)channel;
        (void)q;
        return false;
    }

    /**
     * Decision-time state step before the choice. Both controller
     * loops call it on every decision they make for `channel`, with
     * the channel's request queue, then make the choice (pick() or
     * fastPick()), then call commit(). Every state change a decision
     * makes, and every RNG draw, lives here or in commit(), written
     * once over the queue, so the two loops cannot drift in it.
     */
    virtual void prepare(unsigned channel, const RequestQueue &q,
                         Cycles now)
    {
        (void)channel;
        (void)q;
        (void)now;
    }

    /**
     * Decision-time state step after the choice: `chosen` is the
     * request the decision picked (nullptr when it declined), and
     * `any_issuable` tells whether any queued entry could have issued.
     */
    virtual void commit(unsigned channel, const Request *chosen,
                        bool any_issuable)
    {
        (void)channel;
        (void)chosen;
        (void)any_issuable;
    }

    /**
     * Choose the next request to advance on a channel, after
     * prepare(): the argmax of the policy's key over the issuable,
     * eligible entries, written once in KeyedScheduler.
     *
     * This is the executable specification: the reference core
     * decides on every cycle a channel has queued requests. The
     * event-driven core makes the same decision through fastPick(),
     * and only on cycles where some entry's next command is
     * timing-legal or pickPending() holds. After a declined
     * evaluation it sleeps until the next legality edge unless
     * pickPending(). A policy is compatible iff every decision the
     * event core leaves out would have been a pure no-op (chooses
     * nothing, no state or RNG consumption in the state steps): with
     * nothing issuable that is !pickPending(); after a decline, the
     * same -1 again on an unchanged queue and issuable set. All
     * registered policies satisfy this; the per-policy audits live at
     * the top of each sched_*.cc.
     *
     * @param channel index of the channel being scheduled
     * @param entries snapshot of the channel's queued requests
     * @param now current cycle
     * @return index of the chosen entry, or -1 to idle. The returned
     *         entry has issuable == true.
     */
    virtual int pick(unsigned channel,
                     std::span<const QueueEntryView> entries,
                     Cycles now) const = 0;

    /**
     * Branch-light pick over the bank-granular FastIssueView (plus
     * the per-source rank-tier masks) instead of a materialized entry
     * span: the event-driven core's only decision path, called
     * between prepare() and commit() like pick(). Must return exactly
     * the slot pick() would have chosen (the differential fuzz in
     * tests/test_dram_fastpath.cc enforces this per policy), or -1 to
     * idle. Called when at least one candidate is issuable or
     * pickPending() holds (then possibly with nothing issuable).
     *
     * @return a queue slot index (not an entry index), or -1.
     */
    virtual int fastPick(const FastIssueView &view, unsigned channel,
                         Cycles now) const = 0;

    /** Maximum number of sources a policy tracks. */
    static constexpr unsigned maxSources = kMaxQueueSources;
};

/**
 * The base every policy P derives from (`final class P : public
 * KeyedScheduler<P>`): it writes the reference pick() once, as the
 * argmax of P's priority key
 *
 *     std::optional<K> key(const QueueEntryView &e, unsigned channel,
 *                          Cycles now) const;
 *
 * over the issuable entries. K is any totally ordered type, smaller
 * is more urgent (a std::tuple spells a policy's Table 2 rule field
 * by field); std::nullopt marks an entry not eligible this decision.
 * The first of equal keys wins, which is walk order (arrival order in
 * the controller's snapshot).
 */
template <class P>
class KeyedScheduler : public Scheduler
{
  public:
    int pick(unsigned channel, std::span<const QueueEntryView> entries,
             Cycles now) const final
    {
        const P &policy = static_cast<const P &>(*this);
        decltype(policy.key(entries[0], channel, now)) best_key;
        int best = -1;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (!entries[i].issuable)
                continue;
            const auto k = policy.key(entries[i], channel, now);
            if (k && (!best_key || *k < *best_key)) {
                best_key = k;
                best = static_cast<int>(i);
            }
        }
        return best;
    }
};

/** Tunable knobs of the fairness-aware policies. */
struct SchedulerParams
{
    /** ATLAS/TCM ranking quantum in cycles. */
    Cycles quantum = 50000;
    /** ATLAS starvation threshold: waiting longer forces priority. */
    Cycles starvationThreshold = 20000;
    /** ATLAS exponential-smoothing weight for attained service. */
    double atlasAlpha = 0.875;
    /** TCM: fraction of total bandwidth granted to the latency cluster. */
    double tcmClusterFraction = 0.15;
    /** TCM: shuffle interval for the bandwidth cluster ranking. */
    Cycles tcmShuffleInterval = 5000;
    /** SMS: maximum requests per formed batch. */
    unsigned smsBatchCap = 16;
    /** SMS: probability of shortest-job-first batch selection. */
    double smsShortestFirstProb = 0.9;
    /** BLISS: consecutive-service streak that blacklists a source. */
    unsigned blissBlacklistThreshold = 4;
    /** BLISS: blacklist clearing interval in cycles. */
    Cycles blissClearInterval = 10000;
    /** PARBS: per-source marking cap when a batch forms. */
    unsigned parbsBatchCap = 5;
    /** MEDUSA: bitmask of reserved (round-robin) banks per channel. */
    std::uint32_t medusaReservedBankMask = 0xF;
    /** Seed for any stochastic choices (SMS). */
    std::uint64_t seed = 0xC0FFEEull;
};

class MemoryController;
struct DramConfig;

/**
 * Descriptor of one registered scheduling policy, built by
 * registerPolicy<P>() (dram/policy_controller.hh).
 *
 * The capability flags are P's compile-time constants, so tooling
 * (`pccs policies`, CI matrices) can inspect a policy without
 * instantiating it; the registry self-check in tests asserts that the
 * descriptor and a fresh instance agree.
 */
struct PolicyInfo
{
    /** Canonical display name ("FR-FCFS"). */
    std::string name;
    /**
     * Accepted lowercase aliases ("frfcfs"). The canonical name is
     * always accepted case-insensitively as well.
     */
    std::vector<std::string> aliases;
    /** Factory over the shared parameter block. */
    std::function<std::unique_ptr<Scheduler>(const SchedulerParams &)>
        factory;
    /** A controller compiled for this policy (PolicyController<P>). */
    std::function<std::unique_ptr<MemoryController>(
        const DramConfig &, const SchedulerParams &)>
        makeController;
    /** P::kPreservesRowHits of this policy. */
    bool preservesRowHits = true;
    /** True when nextTickEvent() is ever != kNoEvent (ATLAS/TCM/BLISS). */
    bool needsTickEvents = false;
};

/**
 * Register a policy descriptor; registerPolicy<P>() builds it and is
 * the way to call this. Registration order defines enumeration order;
 * re-registering an already-known canonical name (case-insensitively)
 * is a fatal user error. Builtin policies are installed first, in
 * Table-2 order followed by the extension policies, no matter how
 * early this is called — external policies always enumerate after
 * them.
 */
void registerSchedulerPolicy(PolicyInfo info);

/** All registered policies, in registration order. */
const std::vector<PolicyInfo> &schedulerPolicies();

/** Canonical names of all registered policies, in order. */
std::vector<std::string> schedulerNames();

/**
 * Look up a policy by canonical name or alias (case-insensitive).
 * @return nullptr when the name is unknown.
 */
const PolicyInfo *findSchedulerPolicy(std::string_view name);

/**
 * Look up a policy by name; unknown names are a fatal user error
 * whose message enumerates the valid policy names.
 */
const PolicyInfo &schedulerFromName(std::string_view name);

/** Comma-separated canonical policy names (for error messages). */
std::string schedulerNameList();

/** A parsed policy list: canonical names, or why parsing stopped. */
struct PolicyList
{
    /** Canonical names in list order (empty when error is set). */
    std::vector<std::string> names;
    /** Empty on success; else names the unknown token and valid list. */
    std::string error;

    bool ok() const { return error.empty(); }
};

/**
 * Parse a comma-separated list of policy names or aliases
 * (case-insensitive) into canonical registry names. Empty tokens are
 * skipped, so "" and "," parse to no names. An unknown name is
 * returned as an error value; the caller decides whether to print it
 * or end the process.
 */
PolicyList parsePolicyList(std::string_view list);

/** Create a scheduler by policy name (fatal on unknown names). */
std::unique_ptr<Scheduler> makeScheduler(std::string_view name,
                                         const SchedulerParams &params = {});

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHEDULER_HH

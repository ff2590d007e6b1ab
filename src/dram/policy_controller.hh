/**
 * @file
 * The memory controller's evaluate-and-issue path, compiled once per
 * scheduling policy, and the registerPolicy<P>() helper that
 * instantiates it.
 *
 * PolicyController<P> owns its policy by value. P is a `final`
 * KeyedScheduler<P>, so every call the hot path makes into it —
 * pickPending, prepare, fastPick, pick, commit, onEnqueue, onService,
 * tick, nextTickEvent — binds statically and can inline; a policy
 * that keeps a base default (FR-FCFS's tick(), pickPending(), state
 * steps, onService()) compiles to nothing. P's constants pick the
 * rest at compile time: kPreservesRowHits masks conflict PREs, and
 * kUsesSourceTier decides whether the request queues keep their
 * per-source layer at all.
 *
 * There is one instantiation per policy and no runtime choice between
 * paths: the reference loop (materialized pick() every cycle) and the
 * event-driven loop (fastPick() on woken channels) are two evaluations
 * inside the same instantiation, selected by setLazyChannelScan().
 * Both run a decision the same way: the policy's prepare() state
 * step, the pure choice, then its commit() state step.
 *
 * Include this header only where a policy is registered (its
 * sched_*.cc, or a test's own policy): each includer compiles the
 * controller for the types it registers.
 */

#ifndef PCCS_DRAM_POLICY_CONTROLLER_HH
#define PCCS_DRAM_POLICY_CONTROLLER_HH

#include <algorithm>
#include <bit>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "dram/controller.hh"
#include "dram/scheduler.hh"

namespace pccs::dram {

/**
 * Build a P from the shared parameter block, or default-construct it
 * when P takes no parameters (FCFS, FR-FCFS).
 */
template <class P>
P
constructPolicy(const SchedulerParams &params)
{
    if constexpr (std::is_constructible_v<P, const SchedulerParams &>)
        return P(params);
    else
        return P();
}

/** A MemoryController whose policy type is known at compile time. */
template <class P>
class PolicyController final : public MemoryController
{
    static_assert(std::is_base_of_v<KeyedScheduler<P>, P> &&
                      std::is_final_v<P>,
                  "a policy is a final KeyedScheduler<P> subclass");

  public:
    PolicyController(const DramConfig &cfg, const SchedulerParams &params)
        : MemoryController(cfg), policy_(constructPolicy<P>(params))
    {
    }

    bool enqueue(unsigned source, Addr addr, bool is_write,
                 Cycles now) override;
    bool tick(Cycles now) override;
    Cycles nextEventCycle(Cycles now) const override;
    Scheduler &scheduler() override { return policy_; }

  private:
    static constexpr bool kSourceTier = P::kUsesSourceTier;

    enum class RefreshOutcome
    {
        NotDue,     ///< no refresh work; normal scheduling proceeds
        Busy,       ///< channel consumed by refresh, nothing changed
        Progressed, ///< channel consumed and a PRE/refresh was issued
    };

    /** The command kinds, for the post-issue wake. */
    enum class Command
    {
        Cas,
        Pre,
        Act,
    };

    /**
     * Run the refresh prologue, then evaluate the channel.
     * @return true when a command (ACT/PRE/CAS) was issued or refresh
     *         progressed.
     * When `wake` is non-null (event-driven lazy scan), the channel is
     * decided by the fast issue engine and `*wake` receives a
     * conservative lower bound on its next interesting cycle; with a
     * null `wake` (reference core) it is decided by the materialized
     * pick().
     */
    bool scheduleChannel(unsigned ch, Cycles now, Cycles *wake);
    /**
     * The reference evaluation: gather the full QueueEntryView list,
     * run the decision (prepare(), pick(), commit()), issue. The
     * executable specification the fast engine is verified against.
     */
    bool scheduleChannelSlow(unsigned ch, Cycles now);
    /**
     * The mask-based fast issue engine (bank-mask and source-mask
     * evaluation over the queue's candidate lists via fastPick());
     * sets `wake` to the channel's next interesting cycle.
     */
    bool scheduleChannelFast(unsigned ch, Cycles now, Cycles &wake);
    /**
     * Issue the chosen command (CAS for a hit, else PRE/ACT) and apply
     * every side effect: bank/bus timing, stats, scheduler
     * notification, hit-list maintenance, dequeue. Shared by the
     * reference and fast evaluations so they cannot drift.
     */
    void issueCommand(unsigned ch, int slot, bool row_hit, Cycles now);
    /**
     * The fast engine's post-issue wake: the first cycle >= now + 1 at
     * which any candidate class can issue, given the pre-issue view
     * `v`, its not-yet-legal bound `future`, and the command `cmd`
     * just issued on bank `b`.
     */
    Cycles issuedWake(unsigned ch, unsigned b, Command cmd,
                      const FastIssueView &v, Cycles future,
                      Cycles now) const;
    /**
     * Earliest cycle at which any queued candidate of bank `b` of
     * channel `ch` could have its next command issued (kNoEvent when
     * the bank is empty or holds only masked conflict PREs).
     */
    Cycles bankIssueBound(unsigned ch, unsigned b) const;
    RefreshOutcome handleRefresh(unsigned ch, Cycles now);
    /**
     * Earliest cycle >= now + 1 at which channel `ch` (which must have
     * queued requests) could issue a command or make refresh progress,
     * in O(occupied banks) over the queue's bank masks.
     */
    Cycles channelNextEvent(unsigned ch, Cycles now) const;

    P policy_;
};

template <class P>
bool
PolicyController<P>::enqueue(unsigned source, Addr addr, bool is_write,
                             Cycles now)
{
    PCCS_ASSERT(source < Scheduler::maxSources,
                "source id %u exceeds the %u-source limit", source,
                Scheduler::maxSources);
    const DecodedAddr loc = mapper_.decode(addr);
    auto &queue = queues_[loc.channel];
    if (queue.full())
        return false;
    // Ids are only ever compared (arrival serials, PARBS batch marks),
    // and acceptance order is the same whether or not rejected
    // retries happen, so every run mode assigns identical ids.
    Request req;
    req.id = nextId_++;
    req.source = source;
    req.isWrite = is_write;
    req.addr = addr;
    req.loc = loc;
    req.arrival = now;
    const Bank &bank = channels_[req.loc.channel].bank(req.loc.bank);
    const bool row_hit =
        bank.openRow() == static_cast<std::int64_t>(req.loc.row);
    const int slot = queue.template push_back<kSourceTier>(req, row_hit);
    policy_.onEnqueue(queue.slot(slot));
    if (lazyChannels_) {
        Cycles &wake = channelWake_[req.loc.channel];
        if (queue.size() == 1 ||
            policy_.pickPending(req.loc.channel, queue)) {
            // First request on an idle channel (a refresh may have
            // come due while the queue was empty), or a policy whose
            // next pick acts regardless: evaluate next cycle.
            wake = 0;
        } else {
            // The cached bound stays valid for the requests it was
            // computed over (enqueues change no bank state); only the
            // newcomer's bank can move the channel's first legality
            // earlier.
            wake = std::min(wake,
                            std::max(bankIssueBound(req.loc.channel,
                                                    req.loc.bank),
                                     now + 1));
        }
    }
    return true;
}

template <class P>
bool
PolicyController<P>::tick(Cycles now)
{
    policy_.tick(now);
    bool active = drainCompletions(now);
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        if (queues_[ch].empty())
            continue;
        if (lazyChannels_) {
            // Quiet channel: its cached wake bound proves this
            // evaluation would come up empty, so skip rebuilding the
            // scheduler view (the dominant per-cycle cost at load).
            if (now < channelWake_[ch])
                continue;
            active |= scheduleChannel(ch, now, &channelWake_[ch]);
        } else {
            active |= scheduleChannel(ch, now, nullptr);
        }
    }
    return active;
}

template <class P>
typename PolicyController<P>::RefreshOutcome
PolicyController<P>::handleRefresh(unsigned ch, Cycles now)
{
    if (now < refreshUntil_[ch])
        return RefreshOutcome::Busy; // refresh in progress: blocked
    if (now < nextRefresh_[ch])
        return RefreshOutcome::NotDue;

    // Refresh due: close every open row, then hold the channel for
    // tRFC. Precharges obey their bank timing (one per command slot).
    Cycles pre_at = 0;
    const int b = firstReadyBank(ch, now, &pre_at);
    if (b >= 0) {
        if (pre_at > now)
            return RefreshOutcome::Busy; // must wait for this PRE
        channels_[ch].prechargeBank(static_cast<unsigned>(b), now);
        queues_[ch].template clearHits<kSourceTier>(
            static_cast<unsigned>(b));
        return RefreshOutcome::Progressed;
    }
    refreshUntil_[ch] = now + cfg_.timing.tRFC;
    // No catch-up storms after idle stretches: refresh debt from
    // periods without traffic is irrelevant to bandwidth accounting.
    nextRefresh_[ch] =
        std::max(nextRefresh_[ch] + cfg_.timing.tREFI, now + 1);
    ++stats_.refreshes;
    return RefreshOutcome::Progressed;
}

template <class P>
bool
PolicyController<P>::scheduleChannel(unsigned ch, Cycles now, Cycles *wake)
{
    switch (handleRefresh(ch, now)) {
    case RefreshOutcome::NotDue:
        break;
    case RefreshOutcome::Busy:
        // Refresh head only (running refresh or a PRE-drain wait): no
        // queue scan happens inside channelNextEvent on this path.
        if (wake)
            *wake = channelNextEvent(ch, now);
        return false;
    case RefreshOutcome::Progressed:
        if (wake)
            *wake = now + 1; // the PRE-drain / refresh chain continues
        return true;
    }

    // The fast issue engine serves the lazy (event-driven) scan; the
    // reference core (wake == nullptr) takes the materialized path —
    // the executable specification the fast engine is verified
    // against.
    if (wake)
        return scheduleChannelFast(ch, now, *wake);
    return scheduleChannelSlow(ch, now);
}

template <class P>
bool
PolicyController<P>::scheduleChannelSlow(unsigned ch, Cycles now)
{
    ChannelTiming &timing = channels_[ch];
    RequestQueue &queue = queues_[ch];

    // Row-hit preservation: a bank whose open row still has pending
    // requests must not be precharged for a conflicting request --
    // otherwise a PRE slips into the cycles between data bursts and
    // destroys every row chain (all policies would degenerate to
    // conflict-per-access behavior). The mask is maintained
    // incrementally by the queue's per-bank hit lists.
    const std::uint32_t pending_hits =
        P::kPreservesRowHits ? pendingRowHitMask(ch) : 0;

    // Build the scheduler's view: for each request, the cycle its
    // *next needed command* (CAS for an open matching row, otherwise
    // PRE or ACT) first becomes legal; issuable means that cycle has
    // arrived. The bank accessors are exact (canX(now) == now >=
    // nextXAt).
    const std::size_t scratch_cap = scratchEntries_.capacity();
    scratchEntries_.clear();
    scratchSlots_.clear();
    const Cycles rank_ready = timing.rankActivateReadyAt();
    const Cycles bus_ready_rd = timing.busReadyAt(false);
    const Cycles bus_ready_wr = timing.busReadyAt(true);
    bool any_issuable = false;
    for (int s = queue.head(); s >= 0; s = queue.next(s)) {
        const Request &r = queue.slot(s);
        const Bank &bank = timing.bank(r.loc.bank);
        QueueEntryView e;
        e.req = &r;
        e.rowHit =
            bank.openRow() == static_cast<std::int64_t>(r.loc.row);
        Cycles t;
        if (e.rowHit) {
            t = std::max(bank.nextAccessAt(),
                         r.isWrite ? bus_ready_wr : bus_ready_rd);
        } else if (bank.openRow() != Bank::noRow) {
            // A conflicting PRE stays masked until the open row's
            // pending hits drain.
            t = (pending_hits & (1u << r.loc.bank))
                    ? kNoEvent
                    : bank.nextPrechargeAt();
        } else {
            t = std::max(bank.nextActivateAt(), rank_ready);
        }
        e.issuable = t <= now;
        any_issuable |= e.issuable;
        scratchEntries_.push_back(e);
        scratchSlots_.push_back(s);
    }
    if (scratchEntries_.capacity() != scratch_cap)
        ++scratchReallocs_;
    PCCS_ASSERT(scratchReallocs_ == 0,
                "scheduler-view gather reallocated mid-run");

    policy_.prepare(ch, queue, now);
    const int idx = policy_.pick(ch, scratchEntries_, now);
    policy_.commit(ch, idx >= 0 ? scratchEntries_[idx].req : nullptr,
                   any_issuable);
    if (idx < 0)
        return false;
    PCCS_ASSERT(static_cast<std::size_t>(idx) < scratchEntries_.size() &&
                    scratchEntries_[idx].issuable,
                "scheduler picked a non-issuable entry %d", idx);
    issueCommand(ch, scratchSlots_[idx], scratchEntries_[idx].rowHit, now);
    return true;
}

template <class P>
void
PolicyController<P>::issueCommand(unsigned ch, int slot, bool row_hit,
                                  Cycles now)
{
    ChannelTiming &timing = channels_[ch];
    RequestQueue &queue = queues_[ch];
    Request &req = queue.slot(slot);
    const unsigned b = req.loc.bank;
    ++issuedCommands_;

    if (row_hit) {
        // CAS: the request completes after CL + burst.
        PCCS_ASSERT(queue.isHit(slot), "row-hit CAS for a non-hit slot");
        const Cycles done = timing.accessBank(b, now, req.isWrite);
        timing.reserveBus(now, req.isWrite);
        req.casIssued = now;
        req.completion = done;
        if (req.neededActivate)
            ++stats_.rowMisses;
        else
            ++stats_.rowHits;
        if (req.isWrite)
            ++stats_.writes;
        else
            ++stats_.reads;
        stats_.bytesTransferred += cfg_.lineBytes;
        stats_.bytesPerSource[req.source] += cfg_.lineBytes;
        policy_.onService(req, now, cfg_.lineBytes);
        pushInflight(req);
        // Unlinks the bank and hit lists too.
        queue.template erase<kSourceTier>(slot);
    } else if (timing.bank(b).openRow() != Bank::noRow) {
        // Row conflict: close the current row first.
        timing.prechargeBank(b, now);
        queue.template clearHits<kSourceTier>(b);
    } else {
        // Row closed: open the request's row. Every request served
        // after this ACT without another ACT counts as a row hit;
        // this one is charged as a miss via neededActivate.
        timing.activateBank(b, now, req.loc.row);
        timing.recordActivate(now);
        req.neededActivate = true;
        queue.template rebuildHits<kSourceTier>(b, req.loc.row);
    }
}

template <class P>
Cycles
PolicyController<P>::bankIssueBound(unsigned ch, unsigned b) const
{
    const ChannelTiming &timing = channels_[ch];
    const RequestQueue &queue = queues_[ch];
    const unsigned queued = queue.bankCount(b);
    if (!queued)
        return kNoEvent;
    const Bank &bank = timing.bank(b);
    if (bank.openRow() == Bank::noRow)
        return std::max(bank.nextActivateAt(), timing.rankActivateReadyAt());
    const unsigned nrd = queue.hitCountRead(b);
    const unsigned nwr = queue.hitCountWrite(b);
    Cycles t = kNoEvent;
    if (nrd)
        t = std::max(bank.nextAccessAt(), timing.busReadyAt(false));
    if (nwr) {
        t = std::min(t,
                     std::max(bank.nextAccessAt(), timing.busReadyAt(true)));
    }
    // A conflicting PRE stays masked while the open row has pending
    // hits under a row-hit-preserving policy.
    if (queued - nrd - nwr && !(P::kPreservesRowHits && (nrd + nwr)))
        t = std::min(t, bank.nextPrechargeAt());
    return t;
}

template <class P>
Cycles
PolicyController<P>::issuedWake(unsigned ch, unsigned b, Command cmd,
                                const FastIssueView &v, Cycles future,
                                Cycles now) const
{
    // A command changes only its own bank, plus the data bus (CAS) or
    // the rank ACT window (ACT). Every other bank's candidate classes
    // that were issuable before it therefore stay issuable, except
    // the ones gated by that shared resource, which become legal
    // exactly when the resource frees up. Classes that were not yet
    // legal are in `future` (a command only pushes legality later, so
    // their pre-command bounds wake at worst early).
    const ChannelTiming &timing = channels_[ch];
    const std::uint64_t others = ~(std::uint64_t{1} << b);
    const std::uint64_t hits_rd = v.hitReadMask & others;
    const std::uint64_t hits_wr = v.hitWriteMask & others;
    const std::uint64_t pres = v.preMask & others;
    const std::uint64_t acts = v.actMask & others;
    Cycles w = std::min(future, nextRefresh_[ch]);
    switch (cmd) {
    case Command::Cas:
        if (pres | acts)
            return now + 1;
        if (hits_rd)
            w = std::min(w, timing.busReadyAt(false));
        if (hits_wr)
            w = std::min(w, timing.busReadyAt(true));
        break;
    case Command::Pre:
        if (hits_rd | hits_wr | pres | acts)
            return now + 1;
        break;
    case Command::Act:
        if (hits_rd | hits_wr | pres)
            return now + 1;
        if (acts)
            w = std::min(w, timing.rankActivateReadyAt());
        break;
    }
    // The issued bank contributes its post-command bounds: remaining
    // hits, an unmasked conflict PRE, or (after a PRE) its ACTs.
    w = std::min(w, bankIssueBound(ch, b));
    return std::max(w, now + 1);
}

template <class P>
bool
PolicyController<P>::scheduleChannelFast(unsigned ch, Cycles now,
                                         Cycles &wake)
{
    ChannelTiming &timing = channels_[ch];
    RequestQueue &queue = queues_[ch];
    ++channelEvaluations_;

    // Classify each occupied bank once: every candidate class of a
    // bank shares one legality bound (read hits: CAS + read bus;
    // write hits: CAS + write bus; conflicts: PRE; closed: ACT + rank
    // windows), so the per-entry walk of the materialized path
    // collapses to an O(occupied banks) mask build over the queue's
    // incrementally maintained candidate lists. The masks and the
    // earliest not-yet-legal bound `future` feed the wake.
    FastIssueView v;
    v.queue = &queue;
    v.openRowMask = timing.openRowMask();
    const Cycles rank_ready = timing.rankActivateReadyAt();
    const Cycles bus_ready_rd = timing.busReadyAt(false);
    const Cycles bus_ready_wr = timing.busReadyAt(true);
    Cycles future = kNoEvent; // earliest not-yet-legal class
    for (std::uint64_t m = queue.occupiedMask(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        const std::uint64_t bit = std::uint64_t{1} << b;
        const Bank &bank = timing.bank(b);
        if (v.openRowMask & bit) {
            const unsigned nrd = queue.hitCountRead(b);
            const unsigned nwr = queue.hitCountWrite(b);
            if (nrd) {
                const Cycles t =
                    std::max(bank.nextAccessAt(), bus_ready_rd);
                if (t <= now)
                    v.hitReadMask |= bit;
                else
                    future = std::min(future, t);
            }
            if (nwr) {
                const Cycles t =
                    std::max(bank.nextAccessAt(), bus_ready_wr);
                if (t <= now)
                    v.hitWriteMask |= bit;
                else
                    future = std::min(future, t);
            }
            // A conflict PRE masked by pending hits is left out: the
            // hits drain only through commands on this bank, whose
            // post-command wake covers the unmasked PRE.
            if (queue.bankCount(b) - nrd - nwr &&
                !(P::kPreservesRowHits && (nrd + nwr))) {
                const Cycles t = bank.nextPrechargeAt();
                if (t <= now)
                    v.preMask |= bit;
                else
                    future = std::min(future, t);
            }
        } else {
            const Cycles t =
                std::max(bank.nextActivateAt(), rank_ready);
            if (t <= now)
                v.actMask |= bit;
            else
                future = std::min(future, t);
        }
    }

    int slot = -1;
    const bool any_issuable = (v.hitBanks() | v.otherBanks()) != 0;
    if (any_issuable || policy_.pickPending(ch, queue)) {
        policy_.prepare(ch, queue, now);
        slot = policy_.fastPick(v, ch, now);
        PCCS_ASSERT(slot < 0 || v.slotIssuable(slot),
                    "fast pick chose a non-issuable slot %d", slot);
        policy_.commit(ch, slot >= 0 ? &queue.slot(slot) : nullptr,
                       any_issuable);
    }
    if (slot < 0) {
        // A declined issuable set (FCFS's in-order window) is declined
        // again until a legality edge or a queue change; only a policy
        // with pending work must be asked again next cycle.
        wake = policy_.pickPending(ch, queue)
                   ? now + 1
                   : std::max(std::min(future, nextRefresh_[ch]),
                              now + 1);
        return false;
    }

    const unsigned b = queue.bank(slot);
    const bool row_hit = queue.isHit(slot);
    const Command cmd = row_hit ? Command::Cas
                        : (v.openRowMask >> b) & 1 ? Command::Pre
                                                   : Command::Act;
    issueCommand(ch, slot, row_hit, now);
    wake = policy_.pickPending(ch, queue)
               ? now + 1
               : issuedWake(ch, b, cmd, v, future, now);
    return true;
}

template <class P>
Cycles
PolicyController<P>::channelNextEvent(unsigned ch, Cycles now) const
{
    const Cycles next = now + 1;

    // A running refresh blocks everything until it completes; its
    // first free cycle is always evaluated, since a policy with
    // pending work (Scheduler::pickPending) acts there.
    if (refreshUntil_[ch] >= next)
        return refreshUntil_[ch];

    // A due (or about-to-be-due) refresh drains open rows one PRE per
    // cycle; the next step happens when the first open bank's PRE
    // becomes legal.
    if (nextRefresh_[ch] <= next) {
        Cycles pre_at = 0;
        if (firstReadyBank(ch, now, &pre_at) < 0)
            return next; // all banks closed: refresh starts next tick
        return std::max(next, pre_at);
    }

    // Normal scheduling: the earliest cycle any queued request's next
    // command becomes legal, or the refresh deadline, whichever first.
    // These are conservative lower bounds (issuing a command only
    // pushes legality later, and every command issue recomputes the
    // wake), so no first-legality edge is ever skipped. Per occupied
    // bank each candidate class shares one legality bound, so the min
    // over (bank, class) pairs is the min over entries.
    Cycles cand = nextRefresh_[ch];
    for (std::uint64_t m = queues_[ch].occupiedMask(); m; m &= m - 1) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(m));
        cand = std::min(cand, bankIssueBound(ch, b));
    }
    return std::max(cand, now + 1);
}

template <class P>
Cycles
PolicyController<P>::nextEventCycle(Cycles now) const
{
    Cycles best = kNoEvent;
    const Cycles done = nextCompletion();
    if (done != kNoEvent)
        best = std::max(done, now + 1);
    // Scheduler tick events (ATLAS/TCM quantum and shuffle boundaries)
    // mutate scheduler state even on otherwise-idle cycles; their
    // rearm chains must advance exactly as in the reference loop.
    const Cycles sched = policy_.nextTickEvent();
    if (sched != kNoEvent)
        best = std::min(best, std::max(sched, now + 1));
    for (unsigned ch = 0; ch < cfg_.channels; ++ch) {
        // Empty channels are lazy, exactly like the reference loop:
        // scheduleChannel (and with it refresh progress) only runs for
        // channels with queued requests.
        if (queues_[ch].empty())
            continue;
        if (lazyChannels_ && channelWake_[ch] > now)
            best = std::min(best, channelWake_[ch]);
        else
            best = std::min(best, channelNextEvent(ch, now));
    }
    return best;
}

/**
 * Register policy P under `name` (and lowercase `aliases`): the
 * scheduler factory, the PolicyController<P> factory, and the
 * capability flags, all derived from the type. Builtins call it from
 * their register hooks; external policies call it directly, at any
 * time before the first lookup by name.
 */
template <class P>
void
registerPolicy(std::string name, std::vector<std::string> aliases = {})
{
    registerSchedulerPolicy({
        .name = std::move(name),
        .aliases = std::move(aliases),
        .factory =
            [](const SchedulerParams &params) -> std::unique_ptr<Scheduler> {
            return std::make_unique<P>(constructPolicy<P>(params));
        },
        .makeController =
            [](const DramConfig &cfg, const SchedulerParams &params)
            -> std::unique_ptr<MemoryController> {
            return std::make_unique<PolicyController<P>>(cfg, params);
        },
        .preservesRowHits = P::kPreservesRowHits,
        .needsTickEvents = P::kNeedsTickEvents,
    });
}

} // namespace pccs::dram

#endif // PCCS_DRAM_POLICY_CONTROLLER_HH

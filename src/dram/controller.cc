#include "controller.hh"

#include <algorithm>
#include <bit>
#include <ostream>

#include "common/logging.hh"

namespace pccs::dram {

MemoryController::MemoryController(const DramConfig &cfg,
                                   std::unique_ptr<Scheduler> scheduler)
    : cfg_(cfg), mapper_(cfg), scheduler_(std::move(scheduler))
{
    PCCS_ASSERT(scheduler_ != nullptr, "controller needs a scheduler");
    PCCS_ASSERT(cfg_.banksPerChannel <= 32,
                "row-hit preservation bitmask supports <= 32 banks");
    channels_.reserve(cfg_.channels);
    queues_.reserve(cfg_.channels);
    for (unsigned c = 0; c < cfg_.channels; ++c) {
        channels_.emplace_back(cfg_.banksPerChannel, cfg_.timing);
        queues_.emplace_back(cfg_.queuePerChannel(),
                             cfg_.banksPerChannel);
    }
    // The gather path must never reallocate mid-run: a queue holds at
    // most queuePerChannel() requests, so one up-front reservation
    // covers every evaluation (scratchReallocations() stays 0).
    scratchEntries_.reserve(cfg_.queuePerChannel());
    scratchSlots_.reserve(cfg_.queuePerChannel());
    nextRefresh_.assign(cfg_.channels, cfg_.timing.tREFI);
    refreshUntil_.assign(cfg_.channels, 0);
    channelWake_.assign(cfg_.channels, 0);
}

void
MemoryController::setLazyChannelScan(bool on)
{
    // The cache is only maintained while lazy scanning is on; entries
    // from a previous lazy phase are stale after a non-lazy interlude.
    if (on && !lazyChannels_)
        std::fill(channelWake_.begin(), channelWake_.end(), Cycles{0});
    lazyChannels_ = on;
}

bool
MemoryController::enqueue(unsigned source, Addr addr, bool is_write,
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
    const int slot = queue.push_back(req, row_hit);
    scheduler_->onEnqueue(queue.slot(slot));
    if (lazyChannels_) {
        Cycles &wake = channelWake_[req.loc.channel];
        if (queue.size() == 1 ||
            scheduler_->pickPending(req.loc.channel, queue)) {
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

bool
MemoryController::tick(Cycles now)
{
    scheduler_->tick(now);
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
            active |= scheduleChannel(ch, now);
        }
    }
    return active;
}

bool
MemoryController::drainCompletions(Cycles now)
{
    bool drained = false;
    // Requests completing on the same cycle are delivered in issue
    // order; no observer depends on that order (delivery only
    // decrements outstanding counts and adds to sums).
    while (!inflight_.empty() && inflight_.front().completion <= now) {
        const Request req = inflight_.front();
        inflight_.pop_front();
        stats_.totalLatency += req.completion - req.arrival;
        ++stats_.completed;
        ++stats_.completedPerSource[req.source];
        if (onComplete_)
            onComplete_(req);
        drained = true;
    }
    return drained;
}

int
MemoryController::firstReadyBank(unsigned ch, Cycles now,
                                 Cycles *pre_at) const
{
    const ChannelTiming &timing = channels_[ch];
    const int b = timing.firstOpenBank();
    if (b >= 0 && pre_at)
        *pre_at = std::max(timing.bank(b).nextPrechargeAt(), now);
    return b;
}

MemoryController::RefreshOutcome
MemoryController::handleRefresh(unsigned ch, Cycles now)
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
        queues_[ch].clearHits(static_cast<unsigned>(b));
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

bool
MemoryController::scheduleChannel(unsigned ch, Cycles now, Cycles *wake)
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

bool
MemoryController::scheduleChannelSlow(unsigned ch, Cycles now)
{
    ChannelTiming &timing = channels_[ch];
    RequestQueue &queue = queues_[ch];

    // Row-hit preservation: a bank whose open row still has pending
    // requests must not be precharged for a conflicting request --
    // otherwise a PRE slips into the cycles between data bursts and
    // destroys every row chain (all policies would degenerate to
    // conflict-per-access behavior). The mask used to be rebuilt here
    // with a queue scan every cycle; it is now maintained
    // incrementally by the queue's per-bank hit lists.
    const std::uint32_t pending_hits =
        scheduler_->preservesRowHits() ? pendingRowHitMask(ch) : 0;

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
        scratchEntries_.push_back(e);
        scratchSlots_.push_back(s);
    }
    if (scratchEntries_.capacity() != scratch_cap)
        ++scratchReallocs_;
    PCCS_ASSERT(scratchReallocs_ == 0,
                "scheduler-view gather reallocated mid-run");

    const int idx = scheduler_->pick(ch, scratchEntries_, now);
    if (idx < 0)
        return false;
    PCCS_ASSERT(static_cast<std::size_t>(idx) < scratchEntries_.size() &&
                    scratchEntries_[idx].issuable,
                "scheduler picked a non-issuable entry %d", idx);
    issueCommand(ch, scratchSlots_[idx], scratchEntries_[idx].rowHit, now);
    return true;
}

void
MemoryController::issueCommand(unsigned ch, int slot, bool row_hit,
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
        scheduler_->onService(req, now, cfg_.lineBytes);
        PCCS_ASSERT(inflight_.empty() ||
                        inflight_.back().completion <= done,
                    "CAS completions must be pushed in order");
        inflight_.push_back(req);
        queue.erase(slot); // unlinks the bank and hit lists too
    } else if (timing.bank(b).openRow() != Bank::noRow) {
        // Row conflict: close the current row first.
        timing.prechargeBank(b, now);
        queue.clearHits(b);
    } else {
        // Row closed: open the request's row. Every request served
        // after this ACT without another ACT counts as a row hit;
        // this one is charged as a miss via neededActivate.
        timing.activateBank(b, now, req.loc.row);
        timing.recordActivate(now);
        req.neededActivate = true;
        queue.rebuildHits(b, req.loc.row);
    }
}

Cycles
MemoryController::bankIssueBound(unsigned ch, unsigned b) const
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
    if (queued - nrd - nwr &&
        !(scheduler_->preservesRowHits() && (nrd + nwr))) {
        t = std::min(t, bank.nextPrechargeAt());
    }
    return t;
}

Cycles
MemoryController::issuedWake(unsigned ch, unsigned b, Command cmd,
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

bool
MemoryController::scheduleChannelFast(unsigned ch, Cycles now,
                                      Cycles &wake)
{
    ChannelTiming &timing = channels_[ch];
    RequestQueue &queue = queues_[ch];
    const bool preserve = scheduler_->preservesRowHits();
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
    v.numBanks = cfg_.banksPerChannel;
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
                !(preserve && (nrd + nwr))) {
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
    if ((v.hitBanks() | v.otherBanks()) ||
        scheduler_->pickPending(ch, queue)) {
        slot = scheduler_->fastPick(v, ch, now);
        PCCS_ASSERT(slot < 0 || v.slotIssuable(slot),
                    "fast pick chose a non-issuable slot %d", slot);
    }
    if (slot < 0) {
        // A declined issuable set (FCFS's in-order window) is declined
        // again until a legality edge or a queue change; only a policy
        // with pending work must be asked again next cycle.
        wake = scheduler_->pickPending(ch, queue)
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
    wake = scheduler_->pickPending(ch, queue)
               ? now + 1
               : issuedWake(ch, b, cmd, v, future, now);
    return true;
}

Cycles
MemoryController::channelNextEvent(unsigned ch, Cycles now) const
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

Cycles
MemoryController::nextEventCycle(Cycles now) const
{
    Cycles best = kNoEvent;
    if (!inflight_.empty())
        best = std::max(inflight_.front().completion, now + 1);
    // Scheduler tick events (ATLAS/TCM quantum and shuffle boundaries)
    // mutate scheduler state even on otherwise-idle cycles; their
    // rearm chains must advance exactly as in the reference loop.
    const Cycles sched = scheduler_->nextTickEvent();
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

void
ControllerStats::print(std::ostream &os, const std::string &prefix) const
{
    auto stat = [&](const char *name, double value, const char *desc) {
        os << prefix << "." << name << " " << value << " # " << desc
           << "\n";
    };
    stat("reads", static_cast<double>(reads), "read CAS commands");
    stat("writes", static_cast<double>(writes), "write CAS commands");
    stat("rowHits", static_cast<double>(rowHits),
         "CAS served from an open row");
    stat("rowMisses", static_cast<double>(rowMisses),
         "CAS that required an ACT");
    stat("rowBufferHitRate", rowBufferHitRate(),
         "row-buffer hit rate [0,1]");
    stat("refreshes", static_cast<double>(refreshes),
         "all-bank refresh operations");
    stat("bytesTransferred", static_cast<double>(bytesTransferred),
         "total data moved, bytes");
    stat("completed", static_cast<double>(completed),
         "completed requests");
    stat("avgLatency", averageLatency(),
         "mean request latency, cycles");
}

std::size_t
MemoryController::pendingRequests() const
{
    std::size_t n = inflight_.size();
    for (const auto &q : queues_)
        n += q.size();
    return n;
}

double
MemoryController::effectiveBandwidthFraction(Cycles cycles) const
{
    if (cycles == 0)
        return 0.0;
    const double peak_bytes =
        static_cast<double>(cycles) * cfg_.channels *
        cfg_.bytesPerCyclePerChannel();
    return static_cast<double>(stats_.bytesTransferred) / peak_bytes;
}

} // namespace pccs::dram

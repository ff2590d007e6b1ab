#include "sched_fcfs.hh"

#include "dram/policy_controller.hh"

// Event-driven audit (FCFS and FR-FCFS): no RNG, no decision-time
// state beyond FCFS's window bound, which prepare() recomputes from
// the queue alone, and tick() is the default no-op, so skipping a
// decision on a cycle where no entry is issuable cannot change any
// future one. FR-FCFS is work-conserving. FCFS's issue window can
// decline while *younger* entries are issuable, but that decline is
// stable: the choice is -1 again until a window entry becomes legal
// (a legality edge, which the event core's wake covers) or the queue
// changes (an enqueue tightens the wake by the newcomer's bank bound;
// a command re-evaluates). Both keep pickPending()'s default, and a
// declined evaluation sleeps until the next legality edge instead of
// stepping cycle by cycle.
//
// Fast-pick audit: the queue walk is id order and arrival is
// non-decreasing in id, so FCFS's window is the first `window` slots
// of the arrival list and the winner is the first issuable among
// them. FR-FCFS's key (row hit first, then arrival with first-in-walk
// tie-break) is precisely the shared oldest-hit-else-oldest helper
// over the bank masks (min arrival serial == min id == first in walk
// order).
namespace pccs::dram {

void
FcfsScheduler::prepare(unsigned channel, const RequestQueue &q,
                       Cycles now)
{
    (void)now;
    constexpr std::uint64_t kAll = ~std::uint64_t{0};
    if (channel >= windowEnd_.size())
        windowEnd_.resize(channel + 1, kAll);
    std::uint64_t end = kAll;
    if (q.size() > static_cast<std::size_t>(window)) {
        int s = q.head();
        for (int n = 0; n < window; ++n)
            s = q.next(s);
        end = q.serial(s);
    }
    windowEnd_[channel] = end;
}

std::optional<Cycles>
FcfsScheduler::key(const QueueEntryView &e, unsigned channel,
                   Cycles now) const
{
    (void)now;
    // Chronological service with no locality awareness: only the few
    // oldest requests are eligible (an in-order front end with a
    // small issue window), and row hits are never preferred over
    // older misses. Both properties are what destroy FCFS's
    // row-buffer hit rate and effective bandwidth under co-location
    // (Table 3).
    if (channel < windowEnd_.size() && e.req->id >= windowEnd_[channel])
        return std::nullopt;
    return e.req->arrival;
}

int
FcfsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                        Cycles now) const
{
    (void)channel;
    (void)now;
    // The first issuable slot among the `window` oldest (the arrival
    // list is walked in id order == age order).
    int n = 0;
    for (int s = view.queue->head(); s >= 0 && n < window;
         s = view.queue->next(s), ++n) {
        if (view.slotIssuable(s))
            return s;
    }
    return -1;
}

std::optional<std::tuple<bool, Cycles>>
FrFcfsScheduler::key(const QueueEntryView &e, unsigned channel,
                     Cycles now) const
{
    (void)channel;
    (void)now;
    return std::tuple{!e.rowHit, e.req->arrival};
}

int
FrFcfsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                          Cycles now) const
{
    (void)channel;
    (void)now;
    return fastPickOldestHitElseOldest(view);
}

void
registerFcfsPolicies()
{
    registerPolicy<FcfsScheduler>("FCFS");
    registerPolicy<FrFcfsScheduler>("FR-FCFS", {"frfcfs"});
}

} // namespace pccs::dram

#include "sched_fcfs.hh"

#include <bit>

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
// non-decreasing in id, so FCFS's window is the ids below
// windowEnd_ and the winner is the issuable entry with the smallest
// id (serial) below it. Each bank's oldest issuable entry is a list
// head: the read- and write-hit heads when their CAS is legal, the
// FIFO head of a closed bank whose ACT is legal, and, when an open
// bank's PRE is legal, its first non-hit (FCFS does not preserve row
// hits, so older hits may sit ahead of it in the bank FIFO). The
// minimum over those heads is the winner. FR-FCFS's key (row hit
// first, then arrival with first-in-walk tie-break) is precisely the
// shared oldest-hit-else-oldest helper over the bank masks (min
// arrival serial == min id == first in walk order).
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
    (void)now;
    const RequestQueue &q = *view.queue;
    // The oldest issuable class head below the window bound.
    int best = -1;
    std::uint64_t bound = channel < windowEnd_.size()
                              ? windowEnd_[channel]
                              : ~std::uint64_t{0};
    auto consider = [&](int s) {
        if (q.serial(s) < bound) {
            best = s;
            bound = q.serial(s);
        }
    };
    for (std::uint64_t m = view.hitReadMask; m; m &= m - 1)
        consider(q.hitHeadRead(static_cast<unsigned>(std::countr_zero(m))));
    for (std::uint64_t m = view.hitWriteMask; m; m &= m - 1)
        consider(q.hitHeadWrite(static_cast<unsigned>(std::countr_zero(m))));
    for (std::uint64_t m = view.actMask; m; m &= m - 1)
        consider(q.bankHead(static_cast<unsigned>(std::countr_zero(m))));
    for (std::uint64_t m = view.preMask; m; m &= m - 1) {
        // A PRE bank holds at least one non-hit; the bank FIFO is in
        // serial order, so the walk stops at the bound.
        for (int s = q.bankHead(static_cast<unsigned>(std::countr_zero(m)));
             s >= 0 && q.serial(s) < bound; s = q.bankNext(s)) {
            if (!q.isHit(s)) {
                consider(s);
                break;
            }
        }
    }
    return best;
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

#include "sched_bliss.hh"

#include "common/logging.hh"
#include "dram/policy_controller.hh"

// Event-driven audit: BLISS has no state steps — a decision reads the
// blacklist and mutates nothing, so every skipped no-issuable cycle
// is a pure no-op, and the choice is work-conserving (the best
// issuable entry always wins), so it never declines an issuable set
// and keeps pickPending()'s default. The two state mutators are
// onService() — driven by CAS issues, which both cores process on
// identical cycles — and the periodic blacklist clear in tick(). The
// clear is the one time-triggered change and is exported through
// nextTickEvent(), so the event core wakes on the precise boundary
// cycle and the `nextClear_ = now + interval` rearm chain advances
// identically in both modes.
//
// Fast-pick audit: the key is a two-tier source split (non-blacklisted
// first) with the FR-FCFS step inside each tier. With an empty
// blacklist — or every issuable source on one side of it — the split
// vanishes and the decision is the shared bank-level
// oldest-hit-else-oldest helper; otherwise the clean tier wins and
// the per-source masks restrict the same helper to its members.
namespace pccs::dram {

BlissScheduler::BlissScheduler(const SchedulerParams &params)
    : params_(params), nextClear_(params.blissClearInterval)
{
}

void
BlissScheduler::tick(Cycles now)
{
    if (now < nextClear_)
        return;
    // Periodic forgiveness: every source gets a clean slate, so a
    // blacklisted source is deprioritized for at most one interval.
    blacklistMask_ = 0;
    lastSource_ = -1;
    streak_ = 0;
    nextClear_ = now + params_.blissClearInterval;
}

void
BlissScheduler::onService(const Request &req, Cycles now, unsigned bytes)
{
    (void)now;
    (void)bytes;
    PCCS_ASSERT(req.source < maxSources, "source id %u out of range",
                req.source);
    if (static_cast<int>(req.source) == lastSource_) {
        if (++streak_ >= params_.blissBlacklistThreshold)
            blacklistMask_ |= std::uint64_t{1} << req.source;
    } else {
        lastSource_ = static_cast<int>(req.source);
        streak_ = 1;
    }
}

std::optional<std::tuple<bool, bool, Cycles>>
BlissScheduler::key(const QueueEntryView &e, unsigned channel,
                    Cycles now) const
{
    (void)channel;
    (void)now;
    return std::tuple{blacklisted(e.req->source), !e.rowHit,
                      e.req->arrival};
}

int
BlissScheduler::fastPick(const FastIssueView &view, unsigned channel,
                         Cycles now) const
{
    (void)channel;
    (void)now;
    if (!blacklistMask_)
        return fastPickOldestHitElseOldest(view);
    const std::uint64_t issuable = view.issuableSourceMask();
    const std::uint64_t clean = issuable & ~blacklistMask_;
    // Tier 1: non-blacklisted sources; when every issuable source is
    // on one side of the blacklist the tier split vanishes and the
    // decision is plain FR-FCFS.
    if (clean == issuable || clean == 0)
        return fastPickOldestHitElseOldest(view);
    return fastPickOldestHitElseOldestOfSources(view, clean);
}

void
registerBlissPolicy()
{
    registerPolicy<BlissScheduler>("BLISS");
}

} // namespace pccs::dram

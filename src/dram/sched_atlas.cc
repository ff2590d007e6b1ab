#include "sched_atlas.hh"

#include "common/logging.hh"
#include "dram/policy_controller.hh"

// Event-driven audit: ATLAS has no state steps — a decision reads the
// attained-service tables, mutates nothing, and draws no RNG. The
// key's `now`-dependent starvation test can flip an *ordering*
// between two entries as time passes, but on skipped cycles no entry
// is issuable, so the choice is -1 under either ordering; at the next
// wake the test is evaluated with the true `now`, exactly as the
// reference loop would. The choice is work-conserving (the best
// issuable entry always wins), so it never declines an issuable set
// and keeps pickPending()'s default. tick()'s quantum fold is the one
// time-triggered state change; it is exported through nextTickEvent()
// so the event core wakes on the precise boundary cycle.
//
// Fast-pick audit: the key is (starved, least attained service, row
// hit, age). Starvation is per *entry*, but the queue's arrival list
// is ordered by non-decreasing arrival, so the starved entries are
// exactly a prefix of it; the starved tier walks that prefix and
// applies the rest of the key to its issuable members (ties to the
// lower serial, which is walk order). With no issuable starved entry
// the key is a source tier followed by the shared
// oldest-hit-else-oldest step, which the per-source masks express
// exactly. An un-starved head costs one subtraction; under saturation
// queue residence is far below the 20k-cycle default threshold.
namespace pccs::dram {

AtlasScheduler::AtlasScheduler(const SchedulerParams &params)
    : params_(params), nextQuantum_(params.quantum)
{
}

void
AtlasScheduler::tick(Cycles now)
{
    if (now < nextQuantum_)
        return;
    // Quantum boundary: fold the service attained during the quantum
    // into the smoothed total (higher alpha = longer memory).
    for (unsigned s = 0; s < maxSources; ++s) {
        totalService_[s] = params_.atlasAlpha * totalService_[s] +
                           (1.0 - params_.atlasAlpha) * quantumService_[s];
        quantumService_[s] = 0.0;
    }
    nextQuantum_ = now + params_.quantum;
}

void
AtlasScheduler::onService(const Request &req, Cycles now, unsigned bytes)
{
    (void)now;
    (void)bytes;
    PCCS_ASSERT(req.source < maxSources, "source id %u out of range",
                req.source);
    // Attained service is measured in data-bus occupancy; every request
    // is one line, so one burst's worth of service per request.
    quantumService_[req.source] += 1.0;
}

std::optional<std::tuple<bool, double, bool, Cycles>>
AtlasScheduler::key(const QueueEntryView &e, unsigned channel,
                    Cycles now) const
{
    (void)channel;
    const Request &r = *e.req;
    const bool starved = now - r.arrival > params_.starvationThreshold;
    return std::tuple{!starved,
                      totalService_[r.source] + quantumService_[r.source],
                      !e.rowHit, r.arrival};
}

int
AtlasScheduler::fastPick(const FastIssueView &view, unsigned channel,
                         Cycles now) const
{
    (void)channel;
    // Starved tier: the starved entries are the arrival-ordered prefix
    // of the queue. Best issuable one by (service, row hit); the walk
    // visits oldest first, so keeping the first of equal keys applies
    // the age and lower-serial tie-breaks.
    const RequestQueue &q = *view.queue;
    int best = -1;
    double best_svc = 0.0;
    bool best_hit = false;
    for (int s = q.head();
         s >= 0 && now - q.slot(s).arrival > params_.starvationThreshold;
         s = q.next(s)) {
        if (!view.slotIssuable(s))
            continue;
        const unsigned src = q.slot(s).source;
        const double svc = totalService_[src] + quantumService_[src];
        const bool hit = q.isHit(s);
        if (best < 0 || svc < best_svc ||
            (svc == best_svc && hit && !best_hit)) {
            best = s;
            best_svc = svc;
            best_hit = hit;
        }
    }
    if (best >= 0)
        return best;

    const std::uint64_t issuable = view.issuableSourceMask();
    if (!issuable)
        return -1;
    // Top rank tier: issuable sources with the least attained service.
    std::uint64_t tier = 0;
    double tier_svc = 0.0;
    for (std::uint64_t m = issuable; m; m &= m - 1) {
        const unsigned src =
            static_cast<unsigned>(std::countr_zero(m));
        const double svc = totalService_[src] + quantumService_[src];
        if (!tier || svc < tier_svc) {
            tier = std::uint64_t{1} << src;
            tier_svc = svc;
        } else if (svc == tier_svc) {
            tier |= std::uint64_t{1} << src;
        }
    }
    if (tier == issuable)
        return fastPickOldestHitElseOldest(view);
    return fastPickOldestHitElseOldestOfSources(view, tier);
}

void
registerAtlasPolicy()
{
    registerPolicy<AtlasScheduler>("ATLAS");
}

} // namespace pccs::dram

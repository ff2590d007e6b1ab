#include "sched_tcm.hh"

#include <algorithm>
#include <numeric>
#include <vector>

#include "common/logging.hh"
#include "dram/policy_controller.hh"

// Event-driven audit: TCM has no state steps — a decision reads the
// cluster/rank tables and mutates nothing, so skipped no-issuable
// cycles are pure no-ops, and the choice is work-conserving (the best
// issuable entry always wins), so it never declines an issuable set
// and keeps pickPending()'s default. Both time-triggered updates (the
// recluster quantum and the rank shuffle) live in tick() and are
// exported through nextTickEvent(), so the event core wakes on
// exactly the reference cycles and the `nextQuantum_/nextShuffle_ =
// now + interval` rearm chains advance identically in both modes.
//
// Fast-pick audit: the key is two source tiers with the FR-FCFS step
// inside each. The latency cluster is a set (no ranks inside it),
// one bitmask rebuilt on recluster; the bandwidth cluster is ranked
// by a permutation, so its winner is the unique minimum-rank issuable
// source.
namespace pccs::dram {

TcmScheduler::TcmScheduler(const SchedulerParams &params)
    : params_(params),
      nextQuantum_(params.quantum),
      nextShuffle_(params.tcmShuffleInterval)
{
    for (unsigned s = 0; s < maxSources; ++s)
        rank_[s] = s;
}

void
TcmScheduler::tick(Cycles now)
{
    if (now >= nextShuffle_) {
        shuffle();
        nextShuffle_ = now + params_.tcmShuffleInterval;
    }
    if (now >= nextQuantum_) {
        for (unsigned s = 0; s < maxSources; ++s) {
            intensity_[s] = 0.5 * intensity_[s] + 0.5 * quantumService_[s];
            quantumService_[s] = 0.0;
        }
        recluster();
        nextQuantum_ = now + params_.quantum;
    }
}

void
TcmScheduler::recluster()
{
    // Sort sources by ascending intensity; admit sources into the
    // latency-sensitive cluster until the cluster's cumulative
    // bandwidth usage exceeds the configured fraction of the total.
    std::vector<unsigned> order(maxSources);
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(), [&](unsigned a, unsigned b) {
        return intensity_[a] < intensity_[b];
    });

    double total = 0.0;
    for (unsigned s = 0; s < maxSources; ++s)
        total += intensity_[s];
    const double budget = params_.tcmClusterFraction * total;

    latencyMask_ = 0;
    double used = 0.0;
    for (unsigned s : order) {
        const std::uint64_t bit = std::uint64_t{1} << s;
        if (intensity_[s] <= 0.0) {
            latencyMask_ |= bit; // idle sources are harmless
            continue;
        }
        if (used + intensity_[s] <= budget) {
            latencyMask_ |= bit;
            used += intensity_[s];
        } else {
            break; // order is ascending; nothing further fits
        }
    }
}

void
TcmScheduler::shuffle()
{
    // Rotate ranks of the bandwidth cluster ("rank shuffle" in the
    // paper's summary) so heavy sources take turns at high priority.
    ++shuffleOffset_;
    for (unsigned s = 0; s < maxSources; ++s)
        rank_[s] = (s + shuffleOffset_) % maxSources;
}

void
TcmScheduler::onService(const Request &req, Cycles now, unsigned bytes)
{
    (void)now;
    (void)bytes;
    PCCS_ASSERT(req.source < maxSources, "source id %u out of range",
                req.source);
    quantumService_[req.source] += 1.0;
}

std::optional<std::tuple<bool, unsigned, bool, Cycles>>
TcmScheduler::key(const QueueEntryView &e, unsigned channel,
                  Cycles now) const
{
    (void)channel;
    (void)now;
    // The latency cluster is a set; only the bandwidth cluster is
    // ranked, by the shuffled permutation.
    const unsigned src = e.req->source;
    const bool lat = inLatencyCluster(src);
    return std::tuple{!lat, lat ? 0u : rank_[src], !e.rowHit,
                      e.req->arrival};
}

int
TcmScheduler::fastPick(const FastIssueView &view, unsigned channel,
                       Cycles now) const
{
    (void)channel;
    (void)now;
    const std::uint64_t issuable = view.issuableSourceMask();
    if (!issuable)
        return -1;
    // Tier 1: the latency-sensitive cluster. Ranks are not consulted
    // inside it — the key falls straight through to row hit
    // then age, which is the shared helper over the cluster members.
    const std::uint64_t lat = issuable & latencyMask_;
    if (lat) {
        if (lat == issuable)
            return fastPickOldestHitElseOldest(view);
        return fastPickOldestHitElseOldestOfSources(view, lat);
    }
    // Tier 2: the bandwidth cluster under the shuffled ranking. The
    // rank table is a permutation, so the minimum-rank issuable
    // source is unique and the decision collapses to a single-source
    // oldest-hit-else-oldest.
    unsigned best_src = 0;
    unsigned best_rank = ~0u;
    for (std::uint64_t m = issuable; m; m &= m - 1) {
        const unsigned src =
            static_cast<unsigned>(std::countr_zero(m));
        if (rank_[src] < best_rank) {
            best_rank = rank_[src];
            best_src = src;
        }
    }
    return fastPickOldestHitElseOldestOfSources(
        view, std::uint64_t{1} << best_src);
}

void
registerTcmPolicy()
{
    registerPolicy<TcmScheduler>("TCM");
}

} // namespace pccs::dram

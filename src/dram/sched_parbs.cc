#include "sched_parbs.hh"

#include <algorithm>
#include <bit>
#include <numeric>

#include "dram/policy_controller.hh"

// Event-driven audit: PARBS's one decision-time state change is batch
// formation, in prepare(). A batch forms exactly when no marked
// request is queued on a non-empty channel, which is what
// pickPending() reports, so the event core decides again on the next
// cycle while it holds — precisely when the reference loop would
// re-form. Otherwise the marked set is non-empty and prepare() leaves
// it alone (and PARBS uses no RNG); the choice is work-conserving
// (the best issuable entry always wins), so it never declines an
// issuable set. Hence batch boundaries and rankings are
// cycle-for-cycle identical across the two cores.
//
// Fast-pick audit: marked requests leave the queue only through the
// CAS that services them, so "any marked queued" is markedTotal > 0.
// A source's marked requests are the prefix of its arrival FIFO below
// its id bound (see sched_parbs.hh), so the key's marked tier reduces
// to: among the sources with outstanding marked requests, the
// minimum-rank one whose bounded prefix holds an issuable entry
// (ranks are a permutation, so that source is unique; only sources
// with some issuable entry — the queue's per-bank source masks OR-ed
// over the issuable banks — can qualify, and they are tried in rank
// order; within one the key is row hit then age, i.e. the first
// issuable hit else the first issuable slot of the prefix walk).
// When no marked entry is issuable, every issuable entry is unmarked
// and the key degenerates to FR-FCFS — the shared bank-level helper.
namespace pccs::dram {

ParbsScheduler::ParbsScheduler(const SchedulerParams &params)
    : params_(params)
{
}

ParbsScheduler::ChannelState &
ParbsScheduler::channelState(unsigned channel)
{
    if (channel >= channels_.size())
        channels_.resize(channel + 1);
    return channels_[channel];
}

const ParbsScheduler::ChannelState &
ParbsScheduler::state(unsigned channel) const
{
    static const ChannelState empty;
    return channel < channels_.size() ? channels_[channel] : empty;
}

void
ParbsScheduler::onService(const Request &req, Cycles now, unsigned bytes)
{
    (void)now;
    (void)bytes;
    ChannelState &st = channelState(req.loc.channel);
    // Every queued id below the bound is marked (later arrivals have
    // larger ids), so the bound test alone decides membership.
    if (req.id < st.markedBelow[req.source]) {
        if (--st.markedLeft[req.source] == 0)
            st.markedSources &= ~(std::uint64_t{1} << req.source);
        --st.markedTotal;
    }
}

void
ParbsScheduler::prepare(unsigned channel, const RequestQueue &q,
                        Cycles now)
{
    (void)now;
    ChannelState &st = channelState(channel);
    if (st.markedTotal != 0 || q.empty())
        return;

    // Batch formation: mark up to parbsBatchCap of each source's
    // oldest requests — the front of its arrival FIFO — then rank the
    // sources shortest-job first so light sources finish their batch
    // quickly while each source's marked requests stay under one
    // consistent ranking (the "parallelism-aware" part — its
    // bank-level parallel accesses are not interleaved apart by rank
    // churn).
    std::array<unsigned, maxSources> take{};
    std::array<Cycles, maxSources> oldest{};
    st.markedBelow.fill(0);
    st.markedSources = 0;
    st.markedTotal = 0;
    for (std::uint64_t m = q.activeSourceMask(); m; m &= m - 1) {
        const unsigned src = static_cast<unsigned>(std::countr_zero(m));
        int s = q.sourceHead(src);
        oldest[src] = q.slot(s).arrival;
        for (; s >= 0 && take[src] < params_.parbsBatchCap;
             s = q.sourceNext(s)) {
            ++take[src];
            st.markedBelow[src] = q.serial(s) + 1;
        }
        if (take[src])
            st.markedSources |= std::uint64_t{1} << src;
        st.markedTotal += take[src];
    }
    st.markedLeft = take;

    std::array<unsigned, maxSources> order;
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](unsigned a, unsigned b) {
                  // Sources outside the batch sort last; among
                  // batch members, fewest marked requests first
                  // (shortest job), ties by older work then id.
                  const bool a_in = take[a] > 0;
                  const bool b_in = take[b] > 0;
                  if (a_in != b_in)
                      return a_in;
                  if (take[a] != take[b])
                      return take[a] < take[b];
                  if (a_in && oldest[a] != oldest[b])
                      return oldest[a] < oldest[b];
                  return a < b;
              });
    for (unsigned r = 0; r < maxSources; ++r)
        st.rank[order[r]] = r;
}

bool
ParbsScheduler::pickPending(unsigned channel, const RequestQueue &q) const
{
    return state(channel).markedTotal == 0 && !q.empty();
}

std::optional<std::tuple<bool, unsigned, bool, Cycles>>
ParbsScheduler::key(const QueueEntryView &e, unsigned channel,
                    Cycles now) const
{
    (void)now;
    // Marked (current-batch) requests first, by their source's rank
    // within the batch; then row hit, then age.
    const ChannelState &st = state(channel);
    const unsigned src = e.req->source;
    const bool marked = e.req->id < st.markedBelow[src];
    return std::tuple{!marked, marked ? st.rank[src] : 0u, !e.rowHit,
                      e.req->arrival};
}

int
ParbsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                         Cycles now) const
{
    (void)now;
    const ChannelState &st = state(channel);
    const RequestQueue &q = *view.queue;

    // Marked tier: the minimum-rank marked source with an issuable
    // marked entry; within it, the oldest issuable hit of the marked
    // prefix, else its oldest issuable entry (the prefix walk is
    // arrival order, so first found == oldest).
    std::uint64_t tier =
        st.markedSources ? st.markedSources & view.issuableSourceMask() : 0;
    while (tier) {
        unsigned src = static_cast<unsigned>(std::countr_zero(tier));
        for (std::uint64_t m = tier & (tier - 1); m; m &= m - 1) {
            const unsigned other =
                static_cast<unsigned>(std::countr_zero(m));
            if (st.rank[other] < st.rank[src])
                src = other;
        }
        tier &= ~(std::uint64_t{1} << src);
        const std::uint64_t bound = st.markedBelow[src];
        int first = -1;
        for (int s = q.sourceHead(src);
             s >= 0 && q.serial(s) < bound; s = q.sourceNext(s)) {
            if (!view.slotIssuable(s))
                continue;
            if (q.isHit(s))
                return s;
            if (first < 0)
                first = s;
        }
        if (first >= 0)
            return first;
    }

    // No marked entry is issuable: every issuable entry is unmarked
    // and the key below the marked tier is plain FR-FCFS.
    return fastPickOldestHitElseOldest(view);
}

void
registerParbsPolicy()
{
    registerPolicy<ParbsScheduler>("PARBS", {"par-bs"});
}

} // namespace pccs::dram

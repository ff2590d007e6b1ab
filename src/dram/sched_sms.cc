#include "sched_sms.hh"

#include <algorithm>

#include "common/logging.hh"
#include "dram/policy_controller.hh"

// Event-driven audit: SMS's pick() mutates state (batch bookkeeping)
// and consumes RNG (batch selection), so the skipping contract needs
// care. A new batch is selected — and an RNG draw consumed — only
// when the previous batch is finished or no longer visible in the
// queue, and pickPending() reports exactly that condition, so the
// event core asks again on the next cycle while it holds, which is
// precisely when the reference loop would reselect. Otherwise the
// in-flight-batch path runs, which touches neither state nor RNG when
// nothing is issuable, and with an issuable entry always picks one
// (its batch's next request, else the oldest issuable entry) — except
// on the reselection cycle itself, whose new owner may be unable to
// issue: then pick() returns -1 although another entry is issuable,
// and the next cycle serves that entry. ChannelState::declined
// records the case so pickPending() covers it. Hence the RNG stream
// and batch state stay cycle-for-cycle identical across the two
// cores.
//
// Fast-pick audit: fastPick() is a line-for-line restatement of
// pick() over the per-source FIFOs — the batch anchor is the FIFO
// head (pick()'s strict-less oldest scan keeps the first of an
// arrival tie, which in walk order is the head), the batch size is
// the capped count of same-row entries along the FIFO, and serving is
// the first issuable row match in FIFO order. It mutates the same
// ChannelState and draws the same single RNG chance per reselection,
// so the RNG stream stays aligned with the reference.
namespace pccs::dram {

SmsScheduler::SmsScheduler(const SchedulerParams &params)
    : params_(params), rng_(params.seed)
{
}

SmsScheduler::ChannelState &
SmsScheduler::channelState(unsigned channel)
{
    if (channel >= channels_.size())
        channels_.resize(channel + 1);
    return channels_[channel];
}

int
SmsScheduler::pick(unsigned channel,
                   std::span<const QueueEntryView> entries, Cycles now)
{
    (void)now;
    ChannelState &st = channelState(channel);

    // Recompute, per source, the head batch visible in this snapshot:
    // the oldest request of the source plus younger requests to the
    // same row, capped at smsBatchCap.
    struct SourceBatch
    {
        int oldestIdx = -1;
        Cycles oldestArrival = 0;
        std::uint32_t row = 0;
        unsigned size = 0;
    };
    std::array<SourceBatch, maxSources> batches;

    for (std::size_t i = 0; i < entries.size(); ++i) {
        const Request &r = *entries[i].req;
        PCCS_ASSERT(r.source < maxSources, "source id %u out of range",
                    r.source);
        SourceBatch &b = batches[r.source];
        if (b.oldestIdx < 0 || r.arrival < b.oldestArrival) {
            b.oldestIdx = static_cast<int>(i);
            b.oldestArrival = r.arrival;
            b.row = r.loc.row;
        }
    }
    for (const auto &e : entries) {
        SourceBatch &b = batches[e.req->source];
        if (e.req->loc.row == b.row && b.size < params_.smsBatchCap)
            ++b.size;
    }

    auto serve_source = [&](unsigned src, std::uint32_t row) -> int {
        // Oldest issuable request of `src` to `row` in this channel.
        int best = -1;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            const auto &e = entries[i];
            if (e.req->source != src || e.req->loc.row != row ||
                !e.issuable) {
                continue;
            }
            if (best < 0 || e.req->arrival < entries[best].req->arrival)
                best = static_cast<int>(i);
        }
        return best;
    };

    // Work-conserving fallback: the oldest issuable request overall.
    auto oldest_issuable = [&]() -> int {
        int best = -1;
        for (std::size_t i = 0; i < entries.size(); ++i) {
            if (!entries[i].issuable)
                continue;
            if (best < 0 ||
                entries[i].req->arrival < entries[best].req->arrival)
                best = static_cast<int>(i);
        }
        return best;
    };

    st.declined = false;
    // Continue the in-flight batch when it still has visible requests.
    if (st.currentSource >= 0 && st.remaining > 0) {
        const SourceBatch &b = batches[st.currentSource];
        if (b.oldestIdx >= 0 && b.row == st.batchRow) {
            int idx = serve_source(static_cast<unsigned>(st.currentSource),
                                   st.batchRow);
            if (idx >= 0) {
                --st.remaining;
                return idx;
            }
            // The batch head cannot issue this cycle (its bank is
            // activating/precharging). The batch keeps ownership of
            // the CAS order, but the command slot stays busy with
            // whatever else is ready (work conservation).
            return oldest_issuable();
        }
    }
    st.currentSource = -1;
    st.remaining = 0;

    // Select a new batch among sources with pending requests.
    std::vector<unsigned> candidates;
    for (unsigned s = 0; s < maxSources; ++s)
        if (batches[s].oldestIdx >= 0)
            candidates.push_back(s);
    if (candidates.empty())
        return -1;

    unsigned chosen;
    if (rng_.chance(params_.smsShortestFirstProb)) {
        chosen = *std::min_element(
            candidates.begin(), candidates.end(),
            [&](unsigned a, unsigned b) {
                if (batches[a].size != batches[b].size)
                    return batches[a].size < batches[b].size;
                return batches[a].oldestArrival < batches[b].oldestArrival;
            });
    } else {
        // Round-robin across sources, starting after the last pick.
        chosen = candidates.front();
        for (unsigned off = 0; off < maxSources; ++off) {
            unsigned s = (st.rrNext + off) % maxSources;
            if (batches[s].oldestIdx >= 0) {
                chosen = s;
                break;
            }
        }
        st.rrNext = chosen + 1;
    }

    st.currentSource = static_cast<int>(chosen);
    st.batchRow = batches[chosen].row;
    st.remaining = batches[chosen].size;

    int idx = serve_source(chosen, st.batchRow);
    if (idx >= 0)
        --st.remaining;
    else
        st.declined = oldest_issuable() >= 0;
    return idx;
}

int
SmsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                       Cycles now)
{
    (void)now;
    ChannelState &st = channelState(channel);
    const RequestQueue &q = *view.queue;
    st.declined = false;

    // The quantities pick() derives from its full-queue batch
    // recomputation all live on the per-source FIFOs: a source's head
    // batch is anchored at its oldest request (the FIFO head), sized
    // by counting same-row entries along the FIFO (capped), and
    // served oldest-match-first (the first issuable row match in FIFO
    // order).
    auto serve_source = [&](unsigned src, std::uint32_t row) -> int {
        for (int s = q.sourceHead(src); s >= 0; s = q.sourceNext(s)) {
            if (q.row(s) == row && view.slotIssuable(s))
                return s;
        }
        return -1;
    };
    auto batch_size = [&](unsigned src, std::uint32_t row) -> unsigned {
        unsigned n = 0;
        for (int s = q.sourceHead(src); s >= 0; s = q.sourceNext(s)) {
            if (q.row(s) == row && ++n == params_.smsBatchCap)
                break;
        }
        return n;
    };

    // Continue the in-flight batch when it still has visible requests.
    if (st.currentSource >= 0 && st.remaining > 0) {
        const unsigned cur = static_cast<unsigned>(st.currentSource);
        const int h = q.sourceHead(cur);
        if (h >= 0 && q.row(h) == st.batchRow) {
            const int s = serve_source(cur, st.batchRow);
            if (s >= 0) {
                --st.remaining;
                return s;
            }
            // Batch head blocked (its bank is activating/precharging):
            // keep batch ownership, serve whatever else is ready.
            return fastPickOldestIssuable(view);
        }
    }
    st.currentSource = -1;
    st.remaining = 0;

    // Select a new batch among sources with pending requests.
    const std::uint64_t active = q.activeSourceMask();
    if (!active)
        return -1;

    unsigned chosen = 0;
    unsigned chosen_size = 0;
    if (rng_.chance(params_.smsShortestFirstProb)) {
        // Shortest head batch first; ties by older anchor, then the
        // lower source id (pick()'s min_element over ascending
        // candidates keeps the first minimum).
        int best = -1;
        unsigned best_size = 0;
        Cycles best_arrival = 0;
        for (std::uint64_t m = active; m; m &= m - 1) {
            const unsigned src =
                static_cast<unsigned>(std::countr_zero(m));
            const int h = q.sourceHead(src);
            const unsigned size = batch_size(src, q.row(h));
            const Cycles arrival = q.slot(h).arrival;
            if (best < 0 || size < best_size ||
                (size == best_size && arrival < best_arrival)) {
                best = static_cast<int>(src);
                best_size = size;
                best_arrival = arrival;
            }
        }
        chosen = static_cast<unsigned>(best);
        chosen_size = best_size;
    } else {
        // Round-robin across sources, starting after the last pick.
        for (unsigned off = 0; off < maxSources; ++off) {
            const unsigned s = (st.rrNext + off) % maxSources;
            if (active & (std::uint64_t{1} << s)) {
                chosen = s;
                break;
            }
        }
        st.rrNext = chosen + 1;
        chosen_size = batch_size(chosen, q.row(q.sourceHead(chosen)));
    }

    st.currentSource = static_cast<int>(chosen);
    st.batchRow = q.row(q.sourceHead(chosen));
    st.remaining = chosen_size;

    const int s = serve_source(chosen, st.batchRow);
    if (s >= 0)
        --st.remaining;
    else
        st.declined = (view.hitBanks() | view.otherBanks()) != 0;
    return s;
}

bool
SmsScheduler::pickPending(unsigned channel, const RequestQueue &q) const
{
    if (q.empty())
        return false;
    if (channel >= channels_.size())
        return true; // no batch selected on this channel yet
    const ChannelState &st = channels_[channel];
    if (st.declined || st.currentSource < 0 || st.remaining == 0)
        return true;
    const int h = q.sourceHead(static_cast<unsigned>(st.currentSource));
    return h < 0 || q.row(h) != st.batchRow;
}

void
registerSmsPolicy()
{
    registerPolicy<SmsScheduler>("SMS");
}

} // namespace pccs::dram

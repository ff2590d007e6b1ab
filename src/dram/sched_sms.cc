#include "sched_sms.hh"

#include <bit>

#include "dram/policy_controller.hh"

// Event-driven audit: SMS's decisions change state (batch
// bookkeeping) and consume RNG (batch selection), all inside its two
// state steps. prepare() reselects — and draws the one RNG chance —
// only when the previous batch is finished or its head is no longer
// queued, and pickPending() reports exactly that condition, so the
// event core decides again on the next cycle while it holds, which is
// precisely when the reference loop would reselect. Otherwise
// prepare() keeps the in-flight batch (its `reselected` flag is
// per-decision scratch that every prepare() rewrites), and commit()
// changes nothing when nothing is issuable. With an issuable entry
// the choice always takes one (its batch's next request, else the
// oldest issuable entry) — except on the reselection decision itself,
// whose new owner may be unable to issue: then the choice is -1
// although another entry is issuable, and the next cycle serves that
// entry. commit() records the case in ChannelState::declined so
// pickPending() covers it. Hence the RNG stream and batch state stay
// cycle-for-cycle identical across the two cores.
//
// Fast-pick audit: the key ranks the batch (the owner's requests to
// the batch row) above every other entry, oldest first, and makes the
// others ineligible on a reselection. fastPick() finds the batch's
// oldest issuable request as the first issuable row match along the
// owner's FIFO (arrival order), and otherwise, unless the decision
// reselected, the oldest issuable entry through the shared bank-head
// helper.
namespace pccs::dram {

SmsScheduler::SmsScheduler(const SchedulerParams &params)
    : params_(params), rng_(params.seed)
{
}

const SmsScheduler::ChannelState &
SmsScheduler::state(unsigned channel) const
{
    static const ChannelState idle;
    return channel < channels_.size() ? channels_[channel] : idle;
}

void
SmsScheduler::prepare(unsigned channel, const RequestQueue &q,
                      Cycles now)
{
    (void)now;
    if (channel >= channels_.size())
        channels_.resize(channel + 1);
    ChannelState &st = channels_[channel];

    // Continue the in-flight batch while it is still visible: a
    // source's head batch is anchored at its oldest request, the FIFO
    // head.
    st.reselected = false;
    if (st.currentSource >= 0 && st.remaining > 0) {
        const int h =
            q.sourceHead(static_cast<unsigned>(st.currentSource));
        if (h >= 0 && q.row(h) == st.batchRow)
            return;
    }
    st.reselected = true;
    st.currentSource = -1;
    st.remaining = 0;

    // Select a new batch among sources with pending requests. A
    // source's head batch is its oldest request plus younger ones to
    // the same row, capped at smsBatchCap.
    const std::uint64_t active = q.activeSourceMask();
    if (!active)
        return;
    auto batch_size = [&](unsigned src) -> unsigned {
        const std::uint32_t row = q.row(q.sourceHead(src));
        unsigned n = 0;
        for (int s = q.sourceHead(src); s >= 0; s = q.sourceNext(s)) {
            if (q.row(s) == row && ++n == params_.smsBatchCap)
                break;
        }
        return n;
    };

    unsigned chosen = 0;
    unsigned chosen_size = 0;
    if (rng_.chance(params_.smsShortestFirstProb)) {
        // Shortest head batch first; ties by the older anchor, then
        // the lower source id.
        Cycles chosen_arrival = 0;
        bool found = false;
        for (std::uint64_t m = active; m; m &= m - 1) {
            const unsigned src =
                static_cast<unsigned>(std::countr_zero(m));
            const unsigned size = batch_size(src);
            const Cycles arrival = q.slot(q.sourceHead(src)).arrival;
            if (!found || size < chosen_size ||
                (size == chosen_size && arrival < chosen_arrival)) {
                found = true;
                chosen = src;
                chosen_size = size;
                chosen_arrival = arrival;
            }
        }
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
        chosen_size = batch_size(chosen);
    }

    st.currentSource = static_cast<int>(chosen);
    st.batchRow = q.row(q.sourceHead(chosen));
    st.remaining = chosen_size;
}

void
SmsScheduler::commit(unsigned channel, const Request *chosen,
                     bool any_issuable)
{
    ChannelState &st = channels_[channel];
    if (chosen && st.inBatch(*chosen))
        --st.remaining;
    st.declined = st.reselected && !chosen && any_issuable;
}

std::optional<std::tuple<bool, Cycles>>
SmsScheduler::key(const QueueEntryView &e, unsigned channel,
                  Cycles now) const
{
    (void)now;
    // The batch owner's requests to the batch row first. When the
    // batch head cannot issue this cycle (its bank is
    // activating/precharging), the batch keeps ownership of the CAS
    // order but the command slot stays busy with whatever else is
    // ready (work conservation) — except on the decision that just
    // selected the batch.
    const ChannelState &st = state(channel);
    const bool in_batch = st.inBatch(*e.req);
    if (!in_batch && st.reselected)
        return std::nullopt;
    return std::tuple{!in_batch, e.req->arrival};
}

int
SmsScheduler::fastPick(const FastIssueView &view, unsigned channel,
                       Cycles now) const
{
    (void)now;
    const ChannelState &st = state(channel);
    const RequestQueue &q = *view.queue;
    if (st.currentSource >= 0) {
        for (int s = q.sourceHead(static_cast<unsigned>(st.currentSource));
             s >= 0; s = q.sourceNext(s)) {
            if (q.row(s) == st.batchRow && view.slotIssuable(s))
                return s;
        }
    }
    return st.reselected ? -1 : fastPickOldestIssuable(view);
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

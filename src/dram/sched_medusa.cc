#include "sched_medusa.hh"

#include "dram/policy_controller.hh"

// Event-driven audit: MEDUSA has no state steps — a decision reads the
// per-channel turn mask and mutates nothing, consumes no RNG, and
// ignores `now` — so skipped no-issuable cycles are pure no-ops. The
// choice is work-conserving (every tier falls through to the next, so
// some issuable entry always wins), so it never declines an issuable
// set and keeps pickPending()'s default. The only state mutation is
// the turn-mask rotation in onService(), which runs on CAS-issue
// cycles; both cores process every CAS on identical cycles, so the
// masks advance in lockstep. tick() is the default no-op and
// nextTickEvent() stays kNoEvent.
//
// Fast-pick audit: the key is a strict three-tier ladder on the bank
// index, and within a tier it is exactly FR-FCFS, so each tier maps
// onto a bank-filtered oldest-hit-else-oldest pass:
// tier 0 (reserved banks holding their turn) picks the lowest bank
// index with any issuable candidate — hit preferred within the bank —
// tier 1 restricts the helper to reserved & ~turns, tier 2 to
// ~reserved. MEDUSA preserves row hits, so a bank's candidates are
// all hits or all non-hits and the per-bank heads cover every case.
namespace pccs::dram {

MedusaScheduler::MedusaScheduler(const SchedulerParams &params)
    : params_(params)
{
}

std::uint32_t &
MedusaScheduler::channelMask(unsigned channel)
{
    if (channel >= rrMask_.size())
        rrMask_.resize(channel + 1, params_.medusaReservedBankMask);
    return rrMask_[channel];
}

void
MedusaScheduler::onService(const Request &req, Cycles now, unsigned bytes)
{
    (void)now;
    (void)bytes;
    const std::uint32_t reserved = params_.medusaReservedBankMask;
    const std::uint32_t bank_bit = std::uint32_t{1} << req.loc.bank;
    if (!(bank_bit & reserved))
        return;
    // The serviced bank spends its turn; once every reserved bank has
    // spent one, the round restarts with the full reserved set.
    std::uint32_t &mask = channelMask(req.loc.channel);
    mask &= ~bank_bit;
    if (mask == 0)
        mask = reserved;
}

std::optional<std::tuple<unsigned, unsigned, bool, Cycles>>
MedusaScheduler::key(const QueueEntryView &e, unsigned channel,
                     Cycles now) const
{
    (void)now;
    // Tier 0 = reserved bank holding its turn, 1 = reserved bank out
    // of turn, 2 = non-reserved. In-turn reserved banks are taken in
    // bank order so the round-robin sequence is deterministic.
    const unsigned bank = e.req->loc.bank;
    const std::uint32_t bit = std::uint32_t{1} << bank;
    const unsigned tier = !(bit & params_.medusaReservedBankMask) ? 2
                          : (bit & turnMask(channel))             ? 0
                                                                  : 1;
    return std::tuple{tier, tier == 0 ? bank : 0u, !e.rowHit,
                      e.req->arrival};
}

int
MedusaScheduler::fastPick(const FastIssueView &view, unsigned channel,
                          Cycles now) const
{
    (void)now;
    const std::uint64_t reserved = params_.medusaReservedBankMask;
    const std::uint64_t turns = turnMask(channel);

    // Tier 0: lowest-indexed in-turn reserved bank with an issuable
    // candidate; a hit in that bank beats its oldest non-hit.
    const std::uint64_t in_turn =
        (view.hitBanks() | view.otherBanks()) & turns;
    if (in_turn) {
        const unsigned b =
            static_cast<unsigned>(std::countr_zero(in_turn));
        const int s = view.oldestHitSlot(b);
        return s >= 0 ? s : view.oldestOtherSlot(b);
    }
    // Tier 1: reserved banks out of turn; tier 2: everyone else.
    const int s = fastPickOldestHitElseOldest(view, reserved & ~turns);
    return s >= 0 ? s : fastPickOldestHitElseOldest(view, ~reserved);
}

void
registerMedusaPolicy()
{
    registerPolicy<MedusaScheduler>("MEDUSA");
}

} // namespace pccs::dram

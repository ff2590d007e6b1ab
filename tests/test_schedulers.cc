/**
 * @file
 * Unit tests for the memory-controller scheduling policies (the five
 * of Table 2 plus the BLISS/PARBS/MEDUSA extensions) and for the
 * name-keyed policy registry they live in.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/policy_controller.hh"
#include "dram/sched_atlas.hh"
#include "dram/sched_bliss.hh"
#include "dram/sched_fcfs.hh"
#include "dram/sched_medusa.hh"
#include "dram/sched_parbs.hh"
#include "dram/sched_sms.hh"
#include "dram/sched_tcm.hh"
#include "dram/scheduler.hh"
#include "dram/system.hh"

namespace pccs::dram {
namespace {

Request
makeReq(std::uint64_t id, unsigned source, Cycles arrival,
        std::uint32_t row = 0, std::uint32_t bank = 0,
        std::uint32_t channel = 0)
{
    Request r;
    r.id = id;
    r.source = source;
    r.arrival = arrival;
    r.loc.row = row;
    r.loc.bank = bank;
    r.loc.channel = channel;
    return r;
}

/**
 * One channel's RequestQueue together with the QueueEntryView span
 * pick() takes over it, so a test can run decisions — state steps
 * included — and ask pickPending() about the same queue. Every
 * request sits in a closed bank; the test decides per call which are
 * issuable and which the entry view shows as row hits.
 */
class QueueHarness
{
  public:
    using Ids = std::vector<std::uint64_t>;

    void push(const Request &r) { q.push_back(r, false); }

    /** Remove the queued request with id `id` (its CAS issued). */
    void erase(std::uint64_t id)
    {
        for (int s = q.head(); s >= 0; s = q.next(s)) {
            if (q.slot(s).id == id) {
                q.erase(s);
                return;
            }
        }
        FAIL() << "request " << id << " is not queued";
    }

    /**
     * The queue in arrival order; ids in `blocked` are not issuable,
     * ids in `hits` are row hits.
     */
    std::vector<QueueEntryView>
    entries(const Ids &blocked = {}, const Ids &hits = {}) const
    {
        auto has = [](const Ids &ids, std::uint64_t id) {
            return std::find(ids.begin(), ids.end(), id) != ids.end();
        };
        std::vector<QueueEntryView> out;
        for (int s = q.head(); s >= 0; s = q.next(s)) {
            const Request &r = q.slot(s);
            out.push_back({&r, !has(blocked, r.id), has(hits, r.id)});
        }
        return out;
    }

    /**
     * One decision the way the reference loop runs it: prepare(),
     * pick() over entries(blocked, hits), commit().
     * @return the chosen request's id, or 0 for none.
     */
    std::uint64_t decide(Scheduler &s, unsigned channel, Cycles now,
                         const Ids &blocked = {}, const Ids &hits = {})
    {
        s.prepare(channel, q, now);
        const std::vector<QueueEntryView> view = entries(blocked, hits);
        const bool any = std::any_of(
            view.begin(), view.end(),
            [](const QueueEntryView &e) { return e.issuable; });
        const int idx = s.pick(channel, view, now);
        const Request *req =
            idx < 0 ? nullptr : view[static_cast<std::size_t>(idx)].req;
        s.commit(channel, req, any);
        return req ? req->id : 0;
    }

    /** The same decision the way the event-driven loop runs it. */
    std::uint64_t decideFast(Scheduler &s, unsigned channel, Cycles now,
                             const FastIssueView &view)
    {
        s.prepare(channel, q, now);
        const int slot = s.fastPick(view, channel, now);
        const Request *req = slot < 0 ? nullptr : &q.slot(slot);
        s.commit(channel, req, (view.hitBanks() | view.otherBanks()) != 0);
        return req ? req->id : 0;
    }

    /** A mask view of the queue where only banks in `act` can ACT. */
    FastIssueView fastView(std::uint64_t act) const
    {
        FastIssueView view;
        view.queue = &q;
        view.actMask = act;
        return view;
    }

    RequestQueue q{32, 8};
};

TEST(SchedulerRegistry, EnumeratesBuiltinsInRegistrationOrder)
{
    const std::vector<std::string> expect{"FCFS", "FR-FCFS", "ATLAS",
                                          "TCM",  "SMS",     "BLISS",
                                          "PARBS", "MEDUSA"};
    EXPECT_EQ(schedulerNames(), expect);
}

TEST(SchedulerRegistry, NamesRoundTrip)
{
    for (const std::string &name : schedulerNames()) {
        EXPECT_EQ(schedulerFromName(name).name, name);
        auto sched = makeScheduler(name);
        ASSERT_NE(sched, nullptr);
        EXPECT_EQ(sched->name(), name);
    }
}

TEST(SchedulerRegistry, DescriptorAgreesWithInstance)
{
    // The capability flags exist so tooling can inspect a policy
    // without instantiating it; they must never drift from what a
    // fresh instance actually reports.
    for (const PolicyInfo &info : schedulerPolicies()) {
        SCOPED_TRACE(info.name);
        auto sched = info.factory(SchedulerParams{});
        ASSERT_NE(sched, nullptr);
        EXPECT_EQ(sched->name(), info.name);
        EXPECT_EQ(sched->nextTickEvent() != kNoEvent,
                  info.needsTickEvents);
    }
}

TEST(SchedulerRegistry, ParseAliasesAndCase)
{
    EXPECT_EQ(schedulerFromName("frfcfs").name, "FR-FCFS");
    EXPECT_EQ(schedulerFromName("FR-FCFS").name, "FR-FCFS");
    EXPECT_EQ(schedulerFromName("fr-fcfs").name, "FR-FCFS");
    EXPECT_EQ(schedulerFromName("atlas").name, "ATLAS");
    EXPECT_EQ(schedulerFromName("par-bs").name, "PARBS");
    EXPECT_EQ(schedulerFromName("parbs").name, "PARBS");
    EXPECT_EQ(schedulerFromName("bliss").name, "BLISS");
    EXPECT_EQ(schedulerFromName("Medusa").name, "MEDUSA");
    EXPECT_EQ(findSchedulerPolicy("not-a-policy"), nullptr);
}

TEST(PolicyList, ResolvesAliasesToCanonicalNames)
{
    const PolicyList parsed = parsePolicyList("frfcfs,Atlas,par-bs,FCFS");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    const std::vector<std::string> expect{"FR-FCFS", "ATLAS", "PARBS",
                                          "FCFS"};
    EXPECT_EQ(parsed.names, expect);
}

TEST(PolicyList, SkipsEmptyTokens)
{
    EXPECT_TRUE(parsePolicyList("").ok());
    EXPECT_TRUE(parsePolicyList("").names.empty());
    EXPECT_TRUE(parsePolicyList(",,").names.empty());
    const std::vector<std::string> expect{"BLISS", "MEDUSA"};
    EXPECT_EQ(parsePolicyList(",bliss,,medusa,").names, expect);
}

TEST(PolicyList, UnknownNameIsAnErrorValue)
{
    // Returned, not fatal: the caller chooses to print or exit. The
    // message names the bad token and the valid names.
    const PolicyList parsed = parsePolicyList("ATLAS,lru,TCM");
    EXPECT_FALSE(parsed.ok());
    EXPECT_TRUE(parsed.names.empty());
    EXPECT_NE(parsed.error.find("'lru'"), std::string::npos)
        << parsed.error;
    for (const std::string &name : schedulerNames())
        EXPECT_NE(parsed.error.find(name), std::string::npos) << name;
}

TEST(SchedulerRegistryDeath, UnknownNameIsFatal)
{
    // The error must enumerate the valid names so a CLI user can
    // self-correct.
    EXPECT_EXIT(schedulerFromName("lru"),
                ::testing::ExitedWithCode(1),
                "unknown scheduler.*FR-FCFS.*BLISS.*PARBS.*MEDUSA");
}

TEST(SchedulerRegistryDeath, DuplicateRegistrationIsFatal)
{
    // "fcfs" collides case-insensitively with "FCFS".
    EXPECT_EXIT(registerPolicy<FcfsScheduler>("fcfs"),
                ::testing::ExitedWithCode(1), "registered twice");
}

/** A minimal external policy to prove third-party registration. */
class RoundRobinTestScheduler final
    : public KeyedScheduler<RoundRobinTestScheduler>
{
  public:
    const char *name() const override { return "TEST-RR"; }
    std::optional<Cycles>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const
    {
        (void)channel;
        (void)now;
        return e.req->arrival;
    }
    int
    fastPick(const FastIssueView &view, unsigned channel,
             Cycles now) const override
    {
        (void)channel;
        (void)now;
        return fastPickOldestIssuable(view);
    }
};

/** Register TEST-RR once per process (re-registering is fatal). */
void
ensureTestRr()
{
    if (!findSchedulerPolicy("TEST-RR"))
        registerPolicy<RoundRobinTestScheduler>("TEST-RR", {"rr"});
}

TEST(SchedulerRegistry, ExternalRegistrationFlowsThroughLookup)
{
    ensureTestRr();
    const PolicyInfo *info = findSchedulerPolicy("rr");
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(info->name, "TEST-RR");
    auto sched = makeScheduler("test-rr");
    ASSERT_NE(sched, nullptr);
    EXPECT_STREQ(sched->name(), "TEST-RR");
    const std::vector<std::string> names = schedulerNames();
    EXPECT_EQ(names.back(), "TEST-RR");
}

TEST(SchedulerRegistry, ExternalPolicyRunsBothLoopsIdentically)
{
    // The registry's controller factory compiles the external policy's
    // evaluate-and-issue path too: the reference loop (key argmax every
    // cycle) and the event-driven loop (fastPick() on woken channels)
    // run through it and must agree bit for bit.
    ensureTestRr();
    auto build = [](RunMode mode) {
        auto sys = std::make_unique<DramSystem>(
            table1Config(), "test-rr", SchedulerParams{}, mode);
        for (unsigned src = 0; src < 6; ++src) {
            TrafficParams p;
            p.source = src;
            p.demand = 12.0;
            p.seed = 41 + src;
            p.writeFraction = src % 2 ? 0.3 : 0.0;
            sys->addGenerator(p);
        }
        return sys;
    };
    auto ref = build(RunMode::Reference);
    auto evt = build(RunMode::EventDriven);
    ref->run(6000);
    evt->run(6000);
    const ControllerStats &a = ref->controller().stats();
    const ControllerStats &b = evt->controller().stats();
    ASSERT_GT(a.completed, 0u);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.refreshes, b.refreshes);
    EXPECT_EQ(a.bytesTransferred, b.bytesTransferred);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.totalLatency, b.totalLatency);
    EXPECT_EQ(a.bytesPerSource, b.bytesPerSource);
    EXPECT_EQ(a.completedPerSource, b.completedPerSource);
    for (std::size_t g = 0; g < ref->numGenerators(); ++g) {
        EXPECT_EQ(ref->generator(g).completedLines(),
                  evt->generator(g).completedLines())
            << "generator " << g;
    }
}

TEST(Fcfs, PicksOldestWhenIssuable)
{
    FcfsScheduler s;
    Request r1 = makeReq(1, 0, 10);
    Request r2 = makeReq(2, 1, 5);
    std::vector<QueueEntryView> q{{&r1, true, false}, {&r2, true, false}};
    EXPECT_EQ(s.pick(0, q, 20), 1);
}

TEST(Fcfs, OldestIssuableWhenHeadIsBlocked)
{
    FcfsScheduler s;
    Request r1 = makeReq(1, 0, 10);
    Request r2 = makeReq(2, 1, 5);
    // The oldest request cannot issue its command this cycle; service
    // stays chronological among the issuable ones.
    std::vector<QueueEntryView> q{{&r1, true, false},
                                  {&r2, false, false}};
    EXPECT_EQ(s.pick(0, q, 20), 0);
}

TEST(Fcfs, NeverPrefersRowHitOverOlderRequest)
{
    FcfsScheduler s;
    Request r1 = makeReq(1, 0, 5);  // older, row miss
    Request r2 = makeReq(2, 1, 10); // younger, row hit
    std::vector<QueueEntryView> q{{&r1, true, false}, {&r2, true, true}};
    EXPECT_EQ(s.pick(0, q, 20), 0);
}

TEST(Fcfs, DeclinesIssuableRequestPastTheWindow)
{
    // Only the `window` oldest requests compete: with one more queued
    // and just the youngest issuable, FCFS idles...
    static_assert(FcfsScheduler::window == 16);
    FcfsScheduler s;
    QueueHarness h;
    QueueHarness::Ids blocked;
    for (std::uint64_t id = 1; id <= 16; ++id) {
        h.push(makeReq(id, 0, id, 0, /*bank=*/0));
        blocked.push_back(id);
    }
    h.push(makeReq(17, 1, 17, 0, /*bank=*/1));
    EXPECT_EQ(h.decide(s, 0, 20, blocked), 0u);
    // (the mask engine agrees: bank 1, the youngest's, alone can ACT)
    EXPECT_EQ(h.decideFast(s, 0, 20, h.fastView(0b10)), 0u);
    // ...until the head leaves and the youngest enters the window.
    h.erase(1);
    EXPECT_EQ(h.decide(s, 0, 21, blocked), 17u);
    EXPECT_EQ(h.decideFast(s, 0, 21, h.fastView(0b10)), 17u);
}

TEST(FrFcfs, PrefersRowHitOverOlder)
{
    FrFcfsScheduler s;
    Request r1 = makeReq(1, 0, 5);  // older, row miss
    Request r2 = makeReq(2, 1, 10); // younger, row hit
    std::vector<QueueEntryView> q{{&r1, true, false}, {&r2, true, true}};
    EXPECT_EQ(s.pick(0, q, 20), 1);
}

TEST(FrFcfs, AgeBreaksTiesAmongHits)
{
    FrFcfsScheduler s;
    Request r1 = makeReq(1, 0, 10);
    Request r2 = makeReq(2, 1, 5);
    std::vector<QueueEntryView> q{{&r1, true, true}, {&r2, true, true}};
    EXPECT_EQ(s.pick(0, q, 20), 1);
}

TEST(FrFcfs, SkipsNonIssuable)
{
    FrFcfsScheduler s;
    Request r1 = makeReq(1, 0, 5);
    Request r2 = makeReq(2, 1, 10);
    std::vector<QueueEntryView> q{{&r1, false, true}, {&r2, true, false}};
    EXPECT_EQ(s.pick(0, q, 20), 1);
}

TEST(FrFcfs, EmptyQueueIdles)
{
    FrFcfsScheduler s;
    EXPECT_EQ(s.pick(0, {}, 0), -1);
}

TEST(Atlas, PrefersLeastAttainedService)
{
    SchedulerParams p;
    AtlasScheduler s(p);
    Request heavy = makeReq(1, 0, 0);
    Request light = makeReq(2, 1, 5);
    // Source 0 has attained lots of service this quantum.
    for (int i = 0; i < 100; ++i)
        s.onService(heavy, i, 64);
    std::vector<QueueEntryView> q{{&heavy, true, true},
                                  {&light, true, false}};
    // Despite being younger and a row miss, the least-served source
    // wins.
    EXPECT_EQ(s.pick(0, q, 50), 1);
}

TEST(Atlas, StarvationThresholdOverridesService)
{
    SchedulerParams p;
    p.starvationThreshold = 100;
    AtlasScheduler s(p);
    Request starved = makeReq(1, 0, 0);
    Request fresh = makeReq(2, 1, 190);
    for (int i = 0; i < 100; ++i)
        s.onService(starved, i, 64); // source 0 heavily served
    std::vector<QueueEntryView> q{{&starved, true, false},
                                  {&fresh, true, true}};
    // At now=200 the old request has waited 200 > threshold: it wins
    // regardless of attained service.
    EXPECT_EQ(s.pick(0, q, 200), 0);
}

TEST(Atlas, QuantumFoldsServiceWithSmoothing)
{
    SchedulerParams p;
    p.quantum = 1000;
    p.atlasAlpha = 0.5;
    AtlasScheduler s(p);
    Request r = makeReq(1, 3, 0);
    for (int i = 0; i < 10; ++i)
        s.onService(r, i, 64);
    EXPECT_DOUBLE_EQ(s.attainedService(3), 0.0) << "before quantum end";
    s.tick(1000);
    EXPECT_DOUBLE_EQ(s.attainedService(3), 5.0); // 0.5 * 10
    s.tick(2000);
    EXPECT_DOUBLE_EQ(s.attainedService(3), 2.5); // decays when idle
}

TEST(Atlas, RowHitBreaksServiceTies)
{
    AtlasScheduler s{SchedulerParams{}};
    Request r1 = makeReq(1, 0, 5);
    Request r2 = makeReq(2, 1, 3);
    std::vector<QueueEntryView> q{{&r1, true, true}, {&r2, true, false}};
    EXPECT_EQ(s.pick(0, q, 10), 0);
}

TEST(Tcm, EveryoneLatencySensitiveInitially)
{
    TcmScheduler s{SchedulerParams{}};
    EXPECT_TRUE(s.inLatencyCluster(0));
    EXPECT_TRUE(s.inLatencyCluster(63));
}

TEST(Tcm, ClustersByIntensityAfterQuantum)
{
    SchedulerParams p;
    p.quantum = 1000;
    p.tcmClusterFraction = 0.2;
    TcmScheduler s(p);
    Request heavy = makeReq(1, 0, 0);
    Request light = makeReq(2, 1, 0);
    for (int i = 0; i < 900; ++i)
        s.onService(heavy, i, 64);
    for (int i = 0; i < 30; ++i)
        s.onService(light, i, 64);
    s.tick(1000);
    EXPECT_FALSE(s.inLatencyCluster(0)) << "heavy source";
    EXPECT_TRUE(s.inLatencyCluster(1)) << "light source";
}

TEST(Tcm, LatencyClusterWinsPick)
{
    SchedulerParams p;
    p.quantum = 1000;
    p.tcmClusterFraction = 0.2;
    TcmScheduler s(p);
    Request heavy = makeReq(1, 0, 0);
    Request light = makeReq(2, 1, 10);
    for (int i = 0; i < 900; ++i)
        s.onService(heavy, i, 64);
    for (int i = 0; i < 30; ++i)
        s.onService(light, i, 64);
    s.tick(1000);
    // Heavy is older and a row hit; light still wins: it is in the
    // latency-sensitive cluster.
    std::vector<QueueEntryView> q{{&heavy, true, true},
                                  {&light, true, false}};
    EXPECT_EQ(s.pick(0, q, 1100), 1);
}

TEST(Sms, ServesBatchToCompletion)
{
    SchedulerParams p;
    p.smsShortestFirstProb = 1.0; // deterministic
    SmsScheduler s(p);
    QueueHarness h;
    h.push(makeReq(1, 0, 0, /*row=*/5));
    h.push(makeReq(2, 0, 1, /*row=*/5));
    h.push(makeReq(3, 1, 2, /*row=*/9));
    // Source 1's batch (1 request) is shorter: SJF picks it first.
    EXPECT_EQ(h.decide(s, 0, 10), 3u);
    h.erase(3);
    // Next decision: source 1 exhausted, source 0's batch begins.
    EXPECT_EQ(h.decide(s, 0, 11), 1u);
    h.erase(1);
    // The batch continues with the same source/row even though another
    // source could be selected.
    h.push(makeReq(4, 2, 3, /*row=*/7));
    EXPECT_EQ(h.decide(s, 0, 12), 2u) << "batch not preempted";
}

TEST(Sms, WorkConservingWhenBatchHeadNotIssuable)
{
    SchedulerParams p;
    p.smsShortestFirstProb = 1.0;
    SmsScheduler s(p);
    QueueHarness h;
    h.push(makeReq(1, 0, 0, 5));
    h.push(makeReq(2, 0, 1, 5));
    EXPECT_EQ(h.decide(s, 0, 10), 1u);
    h.erase(1);
    // The batch of source 0 is in flight but its next request is
    // blocked (bank activating): the slot serves another source's
    // ready request instead of idling...
    h.push(makeReq(3, 1, 2, 9));
    EXPECT_EQ(h.decide(s, 0, 11, {2}), 3u);
    h.erase(3);
    // ...and with nothing issuable at all, the slot idles.
    EXPECT_EQ(h.decide(s, 0, 12, {2}), 0u);
}

TEST(Sms, EmptyQueueIdles)
{
    SmsScheduler s{SchedulerParams{}};
    QueueHarness h;
    EXPECT_EQ(h.decide(s, 0, 0), 0u);
}

TEST(Sms, PerChannelBatchesAreIndependent)
{
    SchedulerParams p;
    p.smsShortestFirstProb = 1.0;
    SmsScheduler s(p);
    QueueHarness h0;
    QueueHarness h1;
    for (QueueHarness *h : {&h0, &h1}) {
        h->push(makeReq(1, 0, 0, 5));
        h->push(makeReq(2, 1, 1, 9));
    }
    // Channel 0 picks source 0's single-request batch... (both size 1;
    // older arrival wins the SJF tie).
    EXPECT_EQ(h0.decide(s, 0, 10), 1u);
    // ...while channel 1's state is untouched and makes its own pick.
    EXPECT_EQ(h1.decide(s, 1, 10), 1u);
}

TEST(Sms, PickPendingTracksBatchReselection)
{
    SchedulerParams p;
    p.smsShortestFirstProb = 1.0;
    SmsScheduler s(p);
    QueueHarness h;
    EXPECT_FALSE(s.pickPending(0, h.q)) << "empty queue";

    h.push(makeReq(1, 0, 0, 5));
    h.push(makeReq(2, 0, 1, 5));
    h.push(makeReq(3, 1, 2, 9));
    EXPECT_TRUE(s.pickPending(0, h.q)) << "no batch selected yet";

    // SJF selects source 1's one-request batch and serves it: the
    // batch is exhausted, so the next decision reselects.
    EXPECT_EQ(h.decide(s, 0, 10), 3u);
    h.erase(3);
    EXPECT_TRUE(s.pickPending(0, h.q)) << "batch exhausted";

    // Source 0's two-request batch starts; with one request left the
    // batch is in flight and a decision with nothing issuable is a
    // no-op.
    EXPECT_EQ(h.decide(s, 0, 11), 1u);
    h.erase(1);
    EXPECT_FALSE(s.pickPending(0, h.q)) << "batch in flight";
    EXPECT_EQ(h.decide(s, 0, 12, {2}), 0u);
    EXPECT_FALSE(s.pickPending(0, h.q));

    // An enqueue behind the batch head leaves the batch in flight.
    h.push(makeReq(4, 0, 13, 7));
    EXPECT_FALSE(s.pickPending(0, h.q)) << "head still in the batch row";

    EXPECT_EQ(h.decide(s, 0, 14), 2u);
    h.erase(2);
    EXPECT_TRUE(s.pickPending(0, h.q)) << "last batch request served";

    // Serving the last queued request leaves nothing to act on.
    EXPECT_EQ(h.decide(s, 0, 15), 4u);
    h.erase(4);
    EXPECT_FALSE(s.pickPending(0, h.q)) << "empty queue";
}

TEST(Sms, PickPendingWhenBatchHeadLeavesTheBatchRow)
{
    SchedulerParams p;
    p.smsShortestFirstProb = 1.0;
    SmsScheduler s(p);
    QueueHarness h;
    // Source 0's head batch is row-5 requests 1 and 3 (size 2);
    // request 2 (row 6) sits between them in arrival order.
    h.push(makeReq(1, 0, 0, 5));
    h.push(makeReq(2, 0, 1, 6));
    h.push(makeReq(3, 0, 2, 5));
    EXPECT_EQ(h.decide(s, 0, 10), 1u);
    h.erase(1);
    // One batch request remains, but the source's head is now row 6:
    // the batch is no longer visible and the next decision reselects.
    EXPECT_TRUE(s.pickPending(0, h.q));
}

TEST(Sms, PickPendingAfterReselectionDecline)
{
    SchedulerParams p;
    p.smsShortestFirstProb = 1.0;
    SmsScheduler s(p);
    QueueHarness h;
    h.push(makeReq(1, 0, 0, 5));
    h.push(makeReq(2, 1, 1, 9));
    h.push(makeReq(3, 1, 2, 9));

    // With nothing issuable, the reselection idles and nothing is
    // pending: the in-flight batch waits for a legality edge.
    EXPECT_EQ(h.decide(s, 0, 10, {1, 2, 3}), 0u);
    EXPECT_FALSE(s.pickPending(0, h.q));
    EXPECT_EQ(h.decide(s, 0, 11, {1, 2, 3}), 0u);
    EXPECT_FALSE(s.pickPending(0, h.q));

    // A fresh scheduler reselects source 0 (shorter batch) while only
    // source 1 can issue: it declines, and the next decision serves
    // the oldest issuable request with the issuable set unchanged.
    SmsScheduler t(p);
    EXPECT_EQ(h.decide(t, 0, 10, {1}), 0u);
    EXPECT_TRUE(t.pickPending(0, h.q)) << "declined reselection";
    EXPECT_EQ(h.decide(t, 0, 11, {1}), 2u);
    h.erase(2);
    EXPECT_FALSE(t.pickPending(0, h.q)) << "source 0's batch in flight";
}

TEST(Sms, FastPickRecordsReselectionDecline)
{
    // The same decline through the mask engine: requests 2 and 3 of
    // source 1 sit in closed bank 1, whose ACT is legal; request 1 of
    // source 0 sits in closed bank 0, whose ACT is not.
    SchedulerParams p;
    p.smsShortestFirstProb = 1.0;
    SmsScheduler s(p);
    QueueHarness h;
    h.push(makeReq(1, 0, 0, 5, /*bank=*/0));
    h.push(makeReq(2, 1, 1, 9, /*bank=*/1));
    h.push(makeReq(3, 1, 2, 9, /*bank=*/1));
    const FastIssueView view = h.fastView(0b10);
    EXPECT_EQ(h.decideFast(s, 0, 10, view), 0u);
    EXPECT_TRUE(s.pickPending(0, h.q));
    EXPECT_EQ(h.decideFast(s, 0, 11, view), 2u);
    EXPECT_FALSE(s.pickPending(0, h.q));
}

TEST(Bliss, BlacklistsAfterConsecutiveServices)
{
    SchedulerParams p;
    p.blissBlacklistThreshold = 3;
    BlissScheduler s(p);
    Request r = makeReq(1, 0, 0);
    s.onService(r, 0, 64);
    s.onService(r, 1, 64);
    EXPECT_FALSE(s.blacklisted(0)) << "two consecutive services";
    s.onService(r, 2, 64);
    EXPECT_TRUE(s.blacklisted(0)) << "third consecutive service";
}

TEST(Bliss, InterleavedServiceResetsStreak)
{
    SchedulerParams p;
    p.blissBlacklistThreshold = 3;
    BlissScheduler s(p);
    Request a = makeReq(1, 0, 0);
    Request b = makeReq(2, 1, 0);
    // Sources alternating never build a streak; nobody is blacklisted.
    for (Cycles c = 0; c < 12; ++c)
        s.onService(c % 2 ? b : a, c, 64);
    EXPECT_FALSE(s.blacklisted(0));
    EXPECT_FALSE(s.blacklisted(1));
}

TEST(Bliss, BlacklistedSourceLosesPick)
{
    SchedulerParams p;
    p.blissBlacklistThreshold = 2;
    BlissScheduler s(p);
    Request hog = makeReq(1, 0, 0);
    s.onService(hog, 0, 64);
    s.onService(hog, 1, 64);
    ASSERT_TRUE(s.blacklisted(0));
    // Blacklisted source 0 is older and a row hit; clean source 1
    // still wins.
    Request young = makeReq(2, 1, 10);
    std::vector<QueueEntryView> q{{&hog, true, true},
                                  {&young, true, false}};
    EXPECT_EQ(s.pick(0, q, 20), 1);
    // A blacklisted source is deprioritized, not starved: alone in the
    // queue it is still served.
    std::vector<QueueEntryView> q2{{&hog, true, false}};
    EXPECT_EQ(s.pick(0, q2, 21), 0);
}

TEST(Bliss, ClearIntervalGrantsCleanSlate)
{
    SchedulerParams p;
    p.blissBlacklistThreshold = 2;
    p.blissClearInterval = 1000;
    BlissScheduler s(p);
    Request hog = makeReq(1, 0, 0);
    s.onService(hog, 0, 64);
    s.onService(hog, 1, 64);
    ASSERT_TRUE(s.blacklisted(0));
    EXPECT_EQ(s.nextTickEvent(), 1000u);
    s.tick(999);
    EXPECT_TRUE(s.blacklisted(0)) << "tick before the boundary";
    s.tick(1000);
    EXPECT_FALSE(s.blacklisted(0)) << "boundary clears the blacklist";
    EXPECT_EQ(s.nextTickEvent(), 2000u) << "rearmed one interval out";
}

TEST(Parbs, BatchRanksShortestSourceFirst)
{
    SchedulerParams p;
    p.parbsBatchCap = 2;
    ParbsScheduler s(p);
    QueueHarness h;
    h.push(makeReq(1, 0, 0));
    h.push(makeReq(2, 0, 1));
    h.push(makeReq(3, 0, 2));
    h.push(makeReq(4, 1, 3));
    // The first decision forms the batch: two oldest of source 0 plus
    // source 1's only request; source 1 (shortest job) ranks first, so
    // its request wins despite being the youngest.
    EXPECT_EQ(h.decide(s, 0, 10), 4u);
    EXPECT_EQ(s.markedCount(0), 3u);
}

TEST(Parbs, MarkedRequestsBeatUnmarkedRowHits)
{
    SchedulerParams p;
    p.parbsBatchCap = 1;
    ParbsScheduler s(p);
    QueueHarness h;
    h.push(makeReq(1, 0, 0));
    h.push(makeReq(2, 0, 1, /*row=*/7));
    // Batch = {1} (cap 1). Request 2 later turns into a row hit; the
    // marked request 1 still goes first — batch membership outranks
    // row locality.
    EXPECT_EQ(h.decide(s, 0, 10), 1u);
    EXPECT_EQ(h.decide(s, 0, 11, {}, /*hits=*/{2}), 1u);
}

TEST(Parbs, BatchCompletionTriggersReformation)
{
    SchedulerParams p;
    p.parbsBatchCap = 2;
    ParbsScheduler s(p);
    QueueHarness h;
    const Request a1 = makeReq(1, 0, 0);
    const Request a2 = makeReq(2, 0, 1);
    h.push(a1);
    h.push(a2);
    h.push(makeReq(3, 0, 2));
    EXPECT_EQ(h.decide(s, 0, 10), 1u);
    EXPECT_EQ(s.markedCount(0), 2u) << "a1 and a2 marked";
    // Servicing drains the batch; ids leave the marked set.
    s.onService(a1, 10, 64);
    h.erase(1);
    EXPECT_EQ(s.markedCount(0), 1u);
    EXPECT_EQ(h.decide(s, 0, 11), 2u) << "a2 is the marked survivor";
    s.onService(a2, 11, 64);
    h.erase(2);
    EXPECT_EQ(s.markedCount(0), 0u);
    // With the batch complete, the next decision re-forms around a3.
    EXPECT_EQ(h.decide(s, 0, 12), 3u);
    EXPECT_EQ(s.markedCount(0), 1u) << "new batch marked a3";
}

TEST(Parbs, ChannelsBatchIndependently)
{
    SchedulerParams p;
    p.parbsBatchCap = 2;
    ParbsScheduler s(p);
    const Request a = makeReq(1, 0, 0, 0, 0, /*channel=*/0);
    QueueHarness h0;
    QueueHarness h1;
    h0.push(a);
    h1.push(makeReq(2, 1, 1, 0, 0, /*channel=*/1));
    EXPECT_EQ(h0.decide(s, 0, 10), 1u);
    EXPECT_EQ(h1.decide(s, 1, 10), 2u);
    EXPECT_EQ(s.markedCount(0), 1u);
    EXPECT_EQ(s.markedCount(1), 1u);
    // Service on channel 0 must not disturb channel 1's batch.
    s.onService(a, 10, 64);
    EXPECT_EQ(s.markedCount(0), 0u);
    EXPECT_EQ(s.markedCount(1), 1u);
}

TEST(Parbs, PickPendingWhileABatchIsDue)
{
    SchedulerParams p;
    p.parbsBatchCap = 1;
    ParbsScheduler s(p);
    QueueHarness h;
    EXPECT_FALSE(s.pickPending(0, h.q)) << "empty queue";

    const Request a1 = makeReq(1, 0, 0);
    const Request a2 = makeReq(2, 0, 1);
    h.push(a1);
    h.push(a2);
    EXPECT_TRUE(s.pickPending(0, h.q)) << "no batch formed yet";

    // Forming the batch (a1, cap 1) settles it, even when nothing is
    // issuable; later decisions leave the marked set alone.
    EXPECT_EQ(h.decide(s, 0, 10, {1, 2}), 0u);
    EXPECT_EQ(s.markedCount(0), 1u);
    EXPECT_FALSE(s.pickPending(0, h.q)) << "batch outstanding";
    EXPECT_EQ(h.decide(s, 0, 11, {1, 2}), 0u);
    EXPECT_EQ(s.markedCount(0), 1u);

    // An unmarked newcomer does not end the batch.
    h.push(makeReq(3, 1, 12));
    EXPECT_FALSE(s.pickPending(0, h.q));

    // Serving the last marked request makes the next decision re-form.
    EXPECT_EQ(h.decide(s, 0, 13), 1u);
    s.onService(a1, 13, 64);
    h.erase(1);
    EXPECT_EQ(s.markedCount(0), 0u);
    EXPECT_TRUE(s.pickPending(0, h.q)) << "batch exhausted";
    h.decide(s, 0, 14);
    EXPECT_EQ(s.markedCount(0), 2u) << "a2 and the newcomer marked";
    EXPECT_FALSE(s.pickPending(0, h.q));

    // An exhausted batch on an emptied queue has nothing to form.
    s.onService(a2, 14, 64);
    s.onService(makeReq(3, 1, 12), 15, 64);
    h.erase(2);
    h.erase(3);
    EXPECT_EQ(s.markedCount(0), 0u);
    EXPECT_FALSE(s.pickPending(0, h.q)) << "empty queue";
}

TEST(Medusa, ReservedBankBeatsNonReserved)
{
    SchedulerParams p;
    p.medusaReservedBankMask = 0x3; // banks 0 and 1 reserved
    MedusaScheduler s(p);
    // Non-reserved bank 2 is older and a row hit; reserved bank 1
    // still wins its slot.
    Request stream = makeReq(1, 0, 0, /*row=*/5, /*bank=*/2);
    Request isolated = makeReq(2, 1, 10, /*row=*/9, /*bank=*/1);
    std::vector<QueueEntryView> q{{&stream, true, true},
                                  {&isolated, true, false}};
    EXPECT_EQ(s.pick(0, q, 20), 1);
}

TEST(Medusa, ReservedBanksTakeRoundRobinTurns)
{
    SchedulerParams p;
    p.medusaReservedBankMask = 0x3;
    MedusaScheduler s(p);
    Request r0 = makeReq(1, 0, 0, 0, /*bank=*/0);
    Request r1 = makeReq(2, 1, 1, 0, /*bank=*/1);
    std::vector<QueueEntryView> q{{&r0, true, false},
                                  {&r1, true, false}};
    // Both reserved banks hold a turn: lowest bank index goes first.
    EXPECT_EQ(s.pick(0, q, 10), 0);
    s.onService(r0, 10, 64);
    EXPECT_EQ(s.turnMask(0), 0x2u) << "bank 0 spent its turn";
    // Bank 0 is now out of turn; bank 1 wins even though bank 0's
    // request is older.
    EXPECT_EQ(s.pick(0, q, 11), 1);
    s.onService(r1, 11, 64);
    EXPECT_EQ(s.turnMask(0), 0x3u) << "round exhausted, mask resets";
}

TEST(Medusa, NonReservedServiceLeavesTurnsUntouched)
{
    SchedulerParams p;
    p.medusaReservedBankMask = 0x3;
    MedusaScheduler s(p);
    Request stream = makeReq(1, 0, 0, 0, /*bank=*/3);
    s.onService(stream, 10, 64);
    EXPECT_EQ(s.turnMask(0), 0x3u);
}

TEST(Medusa, OutOfTurnReservedStillBeatsNonReserved)
{
    SchedulerParams p;
    p.medusaReservedBankMask = 0x3;
    MedusaScheduler s(p);
    Request r0 = makeReq(1, 0, 0, 0, /*bank=*/0);
    s.onService(r0, 10, 64); // bank 0 spends its turn
    ASSERT_EQ(s.turnMask(0), 0x2u);
    // An out-of-turn reserved bank still outranks the non-reserved
    // tier (younger, no row hit, still wins).
    Request again = makeReq(2, 0, 12, 0, /*bank=*/0);
    Request stream = makeReq(3, 1, 2, /*row=*/5, /*bank=*/3);
    std::vector<QueueEntryView> q{{&again, true, false},
                                  {&stream, true, true}};
    EXPECT_EQ(s.pick(0, q, 20), 0);
}

TEST(Medusa, PerChannelTurnMasksAreIndependent)
{
    SchedulerParams p;
    p.medusaReservedBankMask = 0x3;
    MedusaScheduler s(p);
    Request r0 = makeReq(1, 0, 0, 0, /*bank=*/0, /*channel=*/0);
    s.onService(r0, 10, 64);
    EXPECT_EQ(s.turnMask(0), 0x2u);
    EXPECT_EQ(s.turnMask(1), 0x3u) << "other channel keeps full mask";
}


/**
 * The reference decision over a mask view: every queued slot becomes
 * an entry in arrival order, issuable exactly when the view says so
 * (FastIssueView::slotIssuable) and a row hit when it is on its
 * bank's hit list. pick() runs over them, after the caller's
 * prepare().
 * @return the chosen slot, or -1.
 */
int
referencePickSlot(const Scheduler &s, const FastIssueView &view,
                  unsigned channel, Cycles now)
{
    const RequestQueue &q = *view.queue;
    std::vector<QueueEntryView> entries;
    std::vector<int> slots;
    for (int slot = q.head(); slot >= 0; slot = q.next(slot)) {
        entries.push_back(
            {&q.slot(slot), view.slotIssuable(slot), q.isHit(slot)});
        slots.push_back(slot);
    }
    const int idx = s.pick(channel, entries, now);
    return idx < 0 ? -1 : slots[static_cast<std::size_t>(idx)];
}

/** Source-by-source oracle for FastIssueView::issuableSourceMask(). */
std::uint64_t
issuableSourcesOneByOne(const FastIssueView &v)
{
    const RequestQueue &q = *v.queue;
    std::uint64_t out = 0;
    for (std::uint64_t m = q.activeSourceMask(); m; m &= m - 1) {
        const unsigned src = static_cast<unsigned>(std::countr_zero(m));
        if ((q.sourceHitReadMask(src) & v.hitReadMask) |
            (q.sourceHitWriteMask(src) & v.hitWriteMask) |
            (q.sourceOccupiedMask(src) & v.otherBanks())) {
            out |= std::uint64_t{1} << src;
        }
    }
    return out;
}

/**
 * A source-tier queue under seeded random traffic that keeps each
 * bank's open row the way the controller does: a request pushed to an
 * open bank's row is a hit, clearHits() closes a bank, rebuildHits()
 * opens one. Source ids are spread over the whole 64-bit mask.
 */
class RandomQueue
{
  public:
    static constexpr unsigned kBanks = 8;
    static constexpr std::int64_t kClosed = -1;

    explicit RandomQueue(std::uint64_t seed) : rng(seed)
    {
        open.fill(kClosed);
    }

    /**
     * Enqueue one random request arriving at `arrival` (queue must
     * not be full).
     */
    const Request &push(Cycles arrival = 0)
    {
        static constexpr unsigned kSources[] = {0, 1, 2, 7, 31, 63};
        Request r;
        r.id = ++lastId;
        r.arrival = arrival;
        r.source = kSources[rng.below(std::size(kSources))];
        r.loc.bank = static_cast<std::uint32_t>(rng.below(kBanks));
        r.loc.row = static_cast<std::uint32_t>(rng.below(3));
        r.isWrite = rng.chance(0.3);
        const int s = q.push_back(
            r, open[r.loc.bank] == static_cast<std::int64_t>(r.loc.row));
        return q.slot(s);
    }

    /** A uniformly chosen queued slot (queue must not be empty). */
    int anySlot()
    {
        int s = q.head();
        for (std::uint64_t n = rng.below(q.size()); n; --n)
            s = q.next(s);
        return s;
    }

    void close(unsigned b)
    {
        q.clearHits(b);
        open[b] = kClosed;
    }

    void activate(unsigned b, std::uint32_t row)
    {
        q.rebuildHits(b, row);
        open[b] = row;
    }

    /**
     * Random legality masks the controller could build over this
     * queue: each occupied bank's candidate classes are legal or not
     * at random, and under a row-hit-preserving policy a bank with
     * pending hits never offers its conflict PRE.
     */
    FastIssueView view(bool preserves_row_hits)
    {
        FastIssueView v;
        v.queue = &q;
        for (unsigned b = 0; b < kBanks; ++b) {
            const std::uint64_t bit = std::uint64_t{1} << b;
            if (open[b] != kClosed)
                v.openRowMask |= bit;
            if (!q.bankCount(b))
                continue;
            if (open[b] == kClosed) {
                if (rng.chance(0.6))
                    v.actMask |= bit;
                continue;
            }
            const unsigned hits = q.hitCount(b);
            if (q.hitCountRead(b) && rng.chance(0.6))
                v.hitReadMask |= bit;
            if (q.hitCountWrite(b) && rng.chance(0.6))
                v.hitWriteMask |= bit;
            if (q.bankCount(b) > hits &&
                !(preserves_row_hits && hits) && rng.chance(0.6))
                v.preMask |= bit;
        }
        return v;
    }

    Rng rng;
    RequestQueue q{24, kBanks};
    std::array<std::int64_t, kBanks> open{};
    std::uint64_t lastId = 0;
};

TEST(RequestQueueSourceTier, BankSourceMasksTransposeSourceMasks)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        RandomQueue rq(seed);
        RequestQueue &q = rq.q;
        for (int step = 0; step < 2000; ++step) {
            const unsigned b =
                static_cast<unsigned>(rq.rng.below(RandomQueue::kBanks));
            const double u = rq.rng.uniform();
            if (u < 0.45 && !q.full())
                rq.push();
            else if (u < 0.8 && !q.empty())
                q.erase(rq.anySlot());
            else if (u < 0.9)
                rq.close(b);
            else
                rq.activate(b, static_cast<std::uint32_t>(rq.rng.below(3)));

            for (unsigned bank = 0; bank < RandomQueue::kBanks; ++bank) {
                std::uint64_t occupied = 0;
                std::uint64_t hit_rd = 0;
                std::uint64_t hit_wr = 0;
                for (unsigned src = 0; src < kMaxQueueSources; ++src) {
                    const std::uint64_t s_bit = std::uint64_t{1} << src;
                    if ((q.sourceOccupiedMask(src) >> bank) & 1)
                        occupied |= s_bit;
                    if ((q.sourceHitReadMask(src) >> bank) & 1)
                        hit_rd |= s_bit;
                    if ((q.sourceHitWriteMask(src) >> bank) & 1)
                        hit_wr |= s_bit;
                }
                ASSERT_EQ(q.bankSourceMask(bank), occupied)
                    << "seed " << seed << " step " << step << " bank "
                    << bank;
                ASSERT_EQ(q.bankHitReadSourceMask(bank), hit_rd)
                    << "seed " << seed << " step " << step << " bank "
                    << bank;
                ASSERT_EQ(q.bankHitWriteSourceMask(bank), hit_wr)
                    << "seed " << seed << " step " << step << " bank "
                    << bank;
            }
            for (int draw = 0; draw < 4; ++draw) {
                // Any bank subsets, consistent with the queue or not.
                const std::uint64_t all =
                    (std::uint64_t{1} << RandomQueue::kBanks) - 1;
                FastIssueView v;
                v.queue = &q;
                v.hitReadMask = rq.rng.next() & all;
                v.hitWriteMask = rq.rng.next() & all;
                v.preMask = rq.rng.next() & all;
                v.actMask = rq.rng.next() & all;
                ASSERT_EQ(v.issuableSourceMask(), issuableSourcesOneByOne(v))
                    << "seed " << seed << " step " << step;
            }
        }
    }
}

TEST(FastPick, MatchesReferencePickOnRandomQueues)
{
    // Every policy decides over random queues and random legal masks;
    // the chosen command is applied the way the controller applies it
    // (CAS dequeues and services, PRE closes, ACT opens), so the
    // queue and the policy state stay reachable.
    for (const PolicyInfo &info : schedulerPolicies()) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            SchedulerParams p;
            p.quantum = 300;
            p.tcmShuffleInterval = 70;
            p.blissClearInterval = 90;
            p.blissBlacklistThreshold = 2;
            p.smsBatchCap = 4;
            p.parbsBatchCap = 3;
            p.seed = seed;
            std::unique_ptr<Scheduler> s = info.factory(p);
            RandomQueue rq(seed * 7919 + 1);
            RequestQueue &q = rq.q;
            unsigned chosen_count = 0;
            for (Cycles now = 1; now <= 1500; ++now) {
                for (std::uint64_t n = rq.rng.below(3); n && !q.full(); --n)
                    s->onEnqueue(rq.push(now));
                if (rq.rng.chance(0.02)) // a refresh drain closes a bank
                    rq.close(static_cast<unsigned>(
                        rq.rng.below(RandomQueue::kBanks)));
                s->tick(now);
                if (q.empty())
                    continue;
                const FastIssueView v = rq.view(info.preservesRowHits);
                const bool any = (v.hitBanks() | v.otherBanks()) != 0;
                s->prepare(0, q, now);
                const int ref = referencePickSlot(*s, v, 0, now);
                const int fast = s->fastPick(v, 0, now);
                ASSERT_EQ(fast, ref) << info.name << " seed " << seed
                                     << " cycle " << now;
                s->commit(0, ref >= 0 ? &q.slot(ref) : nullptr, any);
                if (ref < 0)
                    continue;
                ++chosen_count;
                const unsigned b = q.bank(ref);
                if (q.isHit(ref)) {
                    s->onService(q.slot(ref), now, 64);
                    q.erase(ref);
                } else if (rq.open[b] != RandomQueue::kClosed) {
                    rq.close(b);
                } else {
                    rq.activate(b, q.row(ref));
                }
            }
            EXPECT_GT(chosen_count, 500u) << info.name << " seed " << seed;
        }
    }
}

/** A lone FCFS channel over a queue the test lays out by hand. */
class FcfsFastPickTest : public ::testing::Test
{
  protected:
    /** Enqueue request `id` (arrival == id) for `bank` and `row`. */
    int push(std::uint64_t id, unsigned bank, std::uint32_t row = 0,
             bool write = false)
    {
        Request r = makeReq(id, 0, id, row, bank);
        r.isWrite = write;
        return q.push_back(r, false);
    }

    /** prepare(), then both picks; they must agree. */
    int decide(const FastIssueView &v)
    {
        s.prepare(0, q, 100);
        const int fast = s.fastPick(v, 0, 100);
        EXPECT_EQ(fast, referencePickSlot(s, v, 0, 100));
        return fast;
    }

    FastIssueView view() const
    {
        FastIssueView v;
        v.queue = &q;
        return v;
    }

    FcfsScheduler s;
    RequestQueue q{32, 8};
};

TEST_F(FcfsFastPickTest, PreBankServesFirstNonHitBehindOlderHit)
{
    // Bank 0 has row 5 open: its older request hits, its younger one
    // conflicts. Only the PRE is legal, so the hit at the bank's FIFO
    // head cannot issue and the younger conflict wins.
    push(1, 0, /*row=*/5);
    const int conflict = push(2, 0, /*row=*/7);
    push(3, 0, /*row=*/5);
    q.rebuildHits(0, 5);
    FastIssueView v = view();
    v.openRowMask = 0b1;
    v.preMask = 0b1;
    EXPECT_EQ(decide(v), conflict);
}

TEST_F(FcfsFastPickTest, WindowEndsAfterSixteenOldest)
{
    // Arrival positions 0..15 are in the window. The oldest issuable
    // entry (bank 1's only request, the rest sit in blocked bank 0)
    // is picked at position 15 and declined at position 16.
    static_assert(FcfsScheduler::window == 16);
    for (std::uint64_t id = 1; id <= 15; ++id)
        push(id, 0);
    const int at15 = push(16, /*bank=*/1);
    for (std::uint64_t id = 17; id <= 20; ++id)
        push(id, 0);
    FastIssueView v = view();
    v.actMask = 0b10;
    EXPECT_EQ(decide(v), at15);

    q.erase(at15);
    const int late = push(21, /*bank=*/1); // arrival position 19
    push(22, 0);
    EXPECT_EQ(decide(v), -1);

    // Drop positions 0..2 of bank 0: the bank-1 entry slides to 16.
    for (int n = 0; n < 3; ++n)
        q.erase(q.head());
    EXPECT_EQ(decide(v), -1);
    q.erase(q.head());
    EXPECT_EQ(decide(v), late) << "position 15 again";
}

TEST_F(FcfsFastPickTest, OlderOfTheReadAndWriteHitHeadsWins)
{
    // Bank 2 has row 3 open with both a read and a write hit whose
    // CAS is legal; the older head issues first, whichever
    // direction it is.
    const int wr = push(1, 2, /*row=*/3, /*write=*/true);
    const int rd = push(2, 2, /*row=*/3);
    push(3, 2, /*row=*/3, /*write=*/true);
    q.rebuildHits(2, 3);
    FastIssueView v = view();
    v.openRowMask = 0b100;
    v.hitReadMask = 0b100;
    v.hitWriteMask = 0b100;
    EXPECT_EQ(decide(v), wr);
    q.erase(wr);
    EXPECT_EQ(decide(v), rd);
}

} // namespace
} // namespace pccs::dram

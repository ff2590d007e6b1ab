/**
 * @file
 * Bit-exact equivalence harness for the event-driven DRAM core.
 *
 * Two layers of protection:
 *
 *  1. Golden pinning: the reference loop's statistics on a frozen
 *     workload matrix were captured from the pre-refactor simulator,
 *     so the controller-internals changes that rode along with the
 *     event core (incremental row-hit counters, the O(1) arrival-order
 *     request queue) are proven behavior-preserving in absolute terms,
 *     not merely consistent between the two present-day modes.
 *
 *  2. Cross-mode equivalence: reference and event-driven runs of the
 *     same system must agree on every ControllerStats field, every
 *     per-source counter, the exact achieved-bandwidth doubles, and
 *     the final cycle — across every registered scheduling policy,
 *     channel counts, demand scales, and seeds, including
 *     configurations that exercise scheduler quantum/shuffle tick
 *     events. The policy axis enumerates the registry, so a newly
 *     registered policy is equivalence-tested automatically;
 *     PCCS_POLICY_FILTER=A,B restricts the run to a subset (CI runs
 *     one job per policy).
 */

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram_equivalence.hh"

namespace pccs::dram {
namespace {

/**
 * FROZEN: this exact construction produced the golden numbers below
 * from the pre-refactor simulator. Do not change it; add new cases to
 * the cross-mode matrix instead.
 */
std::unique_ptr<DramSystem>
buildSystem(std::string_view policy, unsigned channels, double scale,
            std::uint64_t seed, RunMode mode,
            const SchedulerParams &sched_params = {})
{
    DramConfig cfg = table1Config();
    cfg.channels = channels;
    cfg.requestBufferEntries = 64 * channels;
    auto sys = std::make_unique<DramSystem>(cfg, policy, sched_params,
                                            mode);

    struct Gen
    {
        double demand, locality, writeFrac;
        unsigned mlp;
    };
    const Gen gens[4] = {{2.0, 0.97, 0.00, 16},
                         {6.0, 0.90, 0.20, 32},
                         {12.0, 0.60, 0.00, 64},
                         {20.0, 0.85, 0.35, 48}};
    for (unsigned s = 0; s < 4; ++s) {
        TrafficParams p;
        p.source = s;
        p.demand = gens[s].demand * scale;
        p.rowLocality = gens[s].locality;
        p.writeFraction = gens[s].writeFrac;
        p.mlp = gens[s].mlp;
        p.seed = seed * 131 + s;
        sys->addGenerator(p);
    }

    // A looping trace-replay source alongside the synthetic ones, so
    // both front ends are under test.
    Rng trng(seed * 977 + 7);
    std::vector<TraceEntry> trace;
    trace.reserve(400);
    for (unsigned i = 0; i < 400; ++i)
        trace.push_back({trng.next(), trng.chance(0.25)});
    ReplayParams rp;
    rp.source = 4;
    rp.demand = 8.0 * scale;
    rp.mlp = 24;
    rp.loop = true;
    sys->addReplay(rp, std::move(trace));
    return sys;
}

constexpr Cycles kWarmup = 3000;
constexpr Cycles kWindow = 20000;

void
runWindow(DramSystem &sys)
{
    sys.run(kWarmup);
    sys.resetMeasurement();
    sys.run(kWindow);
}

/**
 * Golden statistics captured from the per-cycle reference simulator
 * (channels = 4, seed = 1, default SchedulerParams, warmup 3000 +
 * window 20000). The five Table 2 policies' rows predate the event
 * core (pre-refactor capture); the extension policies' rows were
 * pinned from the same reference loop when each policy landed. Any
 * drift here means a rework changed simulated behavior, not just its
 * speed.
 */
struct GoldenRow
{
    const char *policy;
    double scale;
    struct
    {
        std::uint64_t reads, writes, rowHits, rowMisses, refreshes,
            bytes, completed, totalLatency;
    } want;
};

const GoldenRow kGolden[] = {
    {"FCFS", 0.25,
     {1837u, 506u, 609u, 1734u, 4u, 149952u, 2344u, 207366u}},
    {"FCFS", 2.50,
     {6147u, 1161u, 2239u, 5069u, 4u, 467712u, 7305u, 3672390u}},
    {"FR-FCFS", 0.25,
     {1837u, 506u, 617u, 1726u, 4u, 149952u, 2344u, 204290u}},
    {"FR-FCFS", 2.50,
     {7535u, 1445u, 3340u, 5640u, 4u, 574720u, 8979u, 3588863u}},
    {"ATLAS", 0.25,
     {1837u, 506u, 615u, 1728u, 4u, 149952u, 2344u, 206079u}},
    {"ATLAS", 2.50,
     {6693u, 1416u, 2639u, 5470u, 4u, 518976u, 8108u, 3421097u}},
    {"TCM", 0.25,
     {1837u, 506u, 617u, 1726u, 4u, 149952u, 2344u, 204290u}},
    {"TCM", 2.50,
     {7535u, 1445u, 3340u, 5640u, 4u, 574720u, 8979u, 3588863u}},
    {"SMS", 0.25,
     {1837u, 506u, 617u, 1726u, 4u, 149952u, 2344u, 204610u}},
    {"SMS", 2.50,
     {7519u, 1438u, 3314u, 5643u, 4u, 573248u, 8964u, 3622229u}},
    {"BLISS", 0.25,
     {1837u, 506u, 621u, 1722u, 4u, 149952u, 2344u, 204308u}},
    {"BLISS", 2.50,
     {7414u, 1438u, 3227u, 5625u, 4u, 566528u, 8853u, 3587850u}},
    {"PARBS", 0.25,
     {1837u, 506u, 616u, 1727u, 4u, 149952u, 2344u, 203872u}},
    {"PARBS", 2.50,
     {7473u, 1444u, 3301u, 5616u, 4u, 570688u, 8923u, 3570163u}},
    {"MEDUSA", 0.25,
     {1837u, 506u, 617u, 1726u, 4u, 149952u, 2345u, 204033u}},
    {"MEDUSA", 2.50,
     {7073u, 1370u, 3041u, 5402u, 4u, 540352u, 8457u, 3606726u}},
    // scale 5.0: deep saturation (queues full, backpressure active) —
    // the regime the bank-mask fast issue engine serves. Captured from
    // the reference loop immediately before the fast engine landed.
    {"FCFS", 5.00,
     {6136u, 1141u, 2288u, 4989u, 4u, 465728u, 7272u, 3422702u}},
    {"FR-FCFS", 5.00,
     {7551u, 1422u, 3313u, 5660u, 4u, 574272u, 8976u, 3655994u}},
    {"ATLAS", 5.00,
     {7603u, 1431u, 3671u, 5363u, 4u, 578176u, 9039u, 3621300u}},
    {"TCM", 5.00,
     {7551u, 1422u, 3313u, 5660u, 4u, 574272u, 8976u, 3655994u}},
    {"SMS", 5.00,
     {7475u, 1397u, 3244u, 5628u, 4u, 567808u, 8874u, 3649405u}},
    {"BLISS", 5.00,
     {7605u, 1403u, 3375u, 5633u, 4u, 576512u, 9004u, 3642757u}},
    {"PARBS", 5.00,
     {7615u, 1425u, 3495u, 5545u, 4u, 578560u, 9039u, 3664481u}},
    {"MEDUSA", 5.00,
     {7112u, 1345u, 3132u, 5325u, 4u, 541248u, 8455u, 3646361u}},
};

/**
 * One golden-pinning configuration: the reference loop (materialized
 * pick()) and the event-driven loop (mask-based fastPick()) must both
 * land on the identical pre-refactor numbers.
 */
struct GoldenMode
{
    RunMode mode;
    const char *name;
};

/** gtest prints the name into the test id instead of raw bytes. */
void
PrintTo(const GoldenMode &gm, std::ostream *os)
{
    *os << gm.name;
}

class GoldenPinning : public ::testing::TestWithParam<GoldenMode>
{
};

TEST_P(GoldenPinning, MatchesPreRefactorStats)
{
    const GoldenMode &gm = GetParam();
    const std::vector<std::string> policies = testPolicies();
    auto selected = [&](const char *policy) {
        for (const std::string &p : policies)
            if (p == policy)
                return true;
        return false;
    };
    for (const GoldenRow &row : kGolden) {
        if (!selected(row.policy))
            continue;
        auto sys = buildSystem(row.policy, 4, row.scale, 1, gm.mode);
        runWindow(*sys);
        const ControllerStats &st = sys->controller().stats();
        SCOPED_TRACE(testing::Message()
                     << row.policy << " scale " << row.scale);
        EXPECT_EQ(st.reads, row.want.reads);
        EXPECT_EQ(st.writes, row.want.writes);
        EXPECT_EQ(st.rowHits, row.want.rowHits);
        EXPECT_EQ(st.rowMisses, row.want.rowMisses);
        EXPECT_EQ(st.refreshes, row.want.refreshes);
        EXPECT_EQ(st.bytesTransferred, row.want.bytes);
        EXPECT_EQ(st.completed, row.want.completed);
        EXPECT_EQ(st.totalLatency, row.want.totalLatency);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, GoldenPinning,
    ::testing::Values(
        GoldenMode{RunMode::Reference, "Reference"},
        GoldenMode{RunMode::EventDriven, "EventDrivenFastPath"}),
    [](const auto &pinfo) { return std::string(pinfo.param.name); });

TEST(DramEquivalence, CrossModeMatrix)
{
    for (const std::string &policy : testPolicies()) {
        for (unsigned channels : {1u, 4u}) {
            for (double scale : {0.25, 1.0, 2.5}) {
                for (std::uint64_t seed : {1u, 2u}) {
                    SCOPED_TRACE(testing::Message()
                                 << policy << " ch="
                                 << channels << " scale=" << scale
                                 << " seed=" << seed);
                    auto ref = buildSystem(policy, channels, scale,
                                           seed,
                                           RunMode::Reference);
                    auto evt = buildSystem(policy, channels, scale,
                                           seed,
                                           RunMode::EventDriven);
                    runWindow(*ref);
                    runWindow(*evt);
                    expectIdentical(*ref, *evt);
                }
            }
        }
    }
}

TEST(DramEquivalence, SchedulerTickEventsUnderQuietTraffic)
{
    // Small quanta + low demand: ATLAS quantum folds, TCM
    // recluster/shuffle boundaries, and BLISS blacklist clears land
    // inside long quiet stretches, so the event core must wake on the
    // exact boundary cycles to keep the `next = now + interval` rearm
    // chains — and with them every later scheduling decision —
    // identical.
    SchedulerParams sp;
    sp.quantum = 1700;
    sp.tcmShuffleInterval = 430;
    sp.blissClearInterval = 790;
    for (const char *policy : {"ATLAS", "TCM", "BLISS"}) {
        for (double scale : {0.05, 1.0}) {
            SCOPED_TRACE(testing::Message()
                         << policy << " scale " << scale);
            auto ref = buildSystem(policy, 4, scale, 3,
                                   RunMode::Reference, sp);
            auto evt = buildSystem(policy, 4, scale, 3,
                                   RunMode::EventDriven, sp);
            runWindow(*ref);
            runWindow(*evt);
            expectIdentical(*ref, *evt);
        }
    }
}

/**
 * Sixteen synthetic sources plus one trace replay against a request
 * buffer of only `per_channel` entries per channel, with aggregate
 * demand well above peak: nearly every source spends most cycles
 * blocked on a full buffer or at its MLP limit, the states the
 * event-driven loop leaves unticked.
 */
std::unique_ptr<DramSystem>
buildBackpressured(std::string_view policy, unsigned per_channel,
                   std::uint64_t seed, RunMode mode)
{
    DramConfig cfg = table1Config();
    cfg.requestBufferEntries = per_channel * cfg.channels;
    auto sys = std::make_unique<DramSystem>(cfg, policy,
                                            SchedulerParams{}, mode);
    for (unsigned s = 0; s < 16; ++s) {
        TrafficParams p;
        p.source = s;
        p.demand = 4.0 + 1.5 * s;
        p.rowLocality = s % 2 ? 0.95 : 0.6;
        p.writeFraction = (s % 4) * 0.1;
        p.mlp = 4u << (s % 4);
        p.seed = seed * 53 + s;
        sys->addGenerator(p);
    }
    Rng trng(seed * 977 + 11);
    std::vector<TraceEntry> trace;
    trace.reserve(300);
    for (unsigned i = 0; i < 300; ++i)
        trace.push_back({trng.next(), trng.chance(0.3)});
    ReplayParams rp;
    rp.source = 16;
    rp.demand = 12.0;
    rp.mlp = 16;
    sys->addReplay(rp, std::move(trace));
    return sys;
}

/**
 * Source `s` of the rotation test: enough demand that sources block on
 * a full buffer, and a small MLP, so stretches of in-flight-only
 * cycles (no command, no issue) recur for the event loop to skip.
 */
TrafficParams
rotationSource(unsigned s)
{
    TrafficParams p;
    p.source = s;
    p.demand = 12.0 + 4.0 * s;
    p.rowLocality = 0.7;
    p.writeFraction = 0.2;
    p.mlp = 6;
    p.seed = 71 + s;
    return p;
}

TEST(DramEquivalence, RotationSurvivesAddedSourceAndSkips)
{
    // The source rotation start is carried from cycle to cycle, reset
    // when a source is added and recomputed after a skip. Three
    // sources contend for a two-entry-per-channel buffer (so the
    // rotation decides who gets a freed slot), then a fourth joins
    // between run() calls at a cycle where now % 3 != now % 4, and
    // the event loop keeps skipping quiet cycles after it. A start
    // left stale by the add, or not recomputed after a skip, orders
    // the sources differently from the every-cycle reference.
    const auto build = [](std::string_view policy, RunMode mode) {
        DramConfig cfg = table1Config();
        cfg.requestBufferEntries = 2 * cfg.channels;
        auto sys = std::make_unique<DramSystem>(cfg, policy,
                                                SchedulerParams{}, mode);
        for (unsigned s = 0; s < 3; ++s)
            sys->addGenerator(rotationSource(s));
        return sys;
    };
    for (const std::string &policy : testPolicies()) {
        SCOPED_TRACE(policy);
        auto ref = build(policy, RunMode::Reference);
        auto evt = build(policy, RunMode::EventDriven);
        for (DramSystem *sys : {ref.get(), evt.get()}) {
            sys->run(4001);
            ASSERT_NE(sys->now() % 3, sys->now() % 4);
            sys->addGenerator(rotationSource(3));
            sys->run(6000);
        }
        expectIdentical(*ref, *evt);
    }
}

TEST(DramEquivalence, TinyRequestBuffersMatrix)
{
    for (const std::string &policy : testPolicies()) {
        for (unsigned per_channel : {2u, 4u}) {
            SCOPED_TRACE(testing::Message()
                         << policy << " entries/ch=" << per_channel);
            auto ref = buildBackpressured(policy, per_channel, 1,
                                          RunMode::Reference);
            auto evt = buildBackpressured(policy, per_channel, 1,
                                          RunMode::EventDriven);
            runWindow(*ref);
            runWindow(*evt);
            expectIdentical(*ref, *evt);
        }
    }
}

TEST(DramEquivalence, SaturatedRetriesOnlyInReference)
{
    // The Figure 5 shape (eight low-group plus eight high-group cores,
    // 60 + 90 GB/s against 102.4 GB/s): the event-driven loop retries
    // a rejected request only once its buffer has room, so each
    // rejection is followed by that request's acceptance; the
    // reference loop retries every cycle.
    auto build = [](RunMode mode) {
        auto sys = std::make_unique<DramSystem>(
            table1Config(), "FR-FCFS", SchedulerParams{}, mode);
        for (unsigned c = 0; c < 16; ++c) {
            TrafficParams p;
            p.source = c;
            p.demand = c < 8 ? 60.0 / 8 : 90.0 / 8;
            p.seed = 300 + c;
            sys->addGenerator(p);
        }
        return sys;
    };
    auto ref = build(RunMode::Reference);
    auto evt = build(RunMode::EventDriven);
    runWindow(*ref);
    runWindow(*evt);
    expectIdentical(*ref, *evt);
    std::uint64_t ref_rejected = 0, evt_rejected = 0;
    for (std::size_t i = 0; i < evt->numGenerators(); ++i) {
        const CoreTrafficGenerator &gen = evt->generator(i);
        EXPECT_LE(gen.rejectedEnqueues(), gen.issuedLines() + 1)
            << "source " << gen.source();
        evt_rejected += gen.rejectedEnqueues();
        ref_rejected += ref->generator(i).rejectedEnqueues();
    }
    EXPECT_GT(evt_rejected, 0u); // the buffers really were full
    EXPECT_GT(ref_rejected, evt_rejected);
}

TEST(DramEquivalence, ModeSwitchMidRun)
{
    // A system may flip modes between run() calls; state carried
    // across the switch (open rows, tokens, inflight, refresh phase)
    // must line up bit-for-bit with a single-mode run.
    auto ref = buildSystem("FR-FCFS", 4, 1.0, 5,
                           RunMode::Reference);
    auto mixed = buildSystem("FR-FCFS", 4, 1.0, 5,
                             RunMode::EventDriven);
    ref->run(9000);
    mixed->run(4000);
    mixed->setRunMode(RunMode::Reference);
    mixed->run(2500);
    mixed->setRunMode(RunMode::EventDriven);
    mixed->run(2500);
    expectIdentical(*ref, *mixed);
}

} // namespace
} // namespace pccs::dram

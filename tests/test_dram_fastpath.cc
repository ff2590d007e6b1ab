/**
 * @file
 * Differential fuzz for the saturated-path fast issue engine.
 *
 * Every configuration is run two ways — the per-cycle reference loop
 * (the argmax of each policy's key over the materialized entries) and
 * the event-driven loop (mask-based fastPick()) — and both must agree
 * on every statistic, per-source counter, and the final
 * pending-request census. The workloads are randomized per seed and
 * deliberately hostile: mixed read/write traffic, tiny queues so
 * enqueue backpressure is constant (and, in a deeper-queue row, long
 * enough to reach past FCFS's issue window),
 * write drains, refresh cadence, and scheduler quantum/shuffle/clear
 * ticks at shortened intervals. Source-skewed mixes target the
 * per-source rank tiers: a hot source camping most of the queue
 * (blacklist/batch-cap/starvation churn) and low-demand bursty
 * sources whose arrival FIFOs drain empty between token-bucket
 * bursts (activeSourceMask set/clear churn).
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "dram/system.hh"

namespace pccs::dram {
namespace {

/** Traffic shape of a fuzz configuration. */
enum class TrafficSkew
{
    /** The original per-seed random mix (moderate per-source load). */
    Mixed,
    /**
     * One source camps most of the queue while trickle sources dart
     * in and out: stresses blacklist formation (BLISS), batch caps
     * (PARBS/SMS), service-skew ranking (ATLAS/TCM), and ATLAS's
     * starved tier.
     */
    HotSource,
    /**
     * Every source is a low-demand burster: the 8-line token cap
     * fills slowly, then flushes as one burst, so per-source arrival
     * FIFOs oscillate between empty and full and the
     * activeSourceMask/per-source occupancy masks churn constantly.
     */
    Bursts,
};

/**
 * A randomized small-queue system: per-seed traffic mix over 2
 * channels with `depth` queue slots each (16 by default), so
 * saturation and queue-full retry paths are exercised from the first
 * few hundred cycles.
 */
std::unique_ptr<DramSystem>
buildFuzzSystem(std::string_view policy, std::uint64_t seed,
                DramRunMode mode, TrafficSkew skew,
                Cycles starvation_threshold, unsigned depth)
{
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 1);
    DramConfig cfg = table1Config();
    cfg.channels = 2;
    cfg.requestBufferEntries = depth * cfg.channels;

    // Shortened tick cadences so quantum/shuffle/blacklist-clear
    // events land inside the short fuzz window.
    SchedulerParams sp;
    sp.quantum = 1500;
    sp.starvationThreshold = starvation_threshold;
    sp.tcmShuffleInterval = 700;
    sp.blissClearInterval = 900;
    sp.blissBlacklistThreshold = 2;
    sp.smsBatchCap = 8;
    sp.seed = seed * 31 + 5;

    auto sys = std::make_unique<DramSystem>(cfg, policy, sp, mode);
    switch (skew) {
    case TrafficSkew::Mixed: {
        const unsigned gens = 2 + static_cast<unsigned>(rng.next() % 3);
        for (unsigned s = 0; s < gens; ++s) {
            TrafficParams p;
            p.source = s;
            p.demand = 4.0 + 28.0 * rng.uniform();
            p.rowLocality = 0.3 + 0.65 * rng.uniform();
            p.writeFraction = 0.5 * rng.uniform();
            p.mlp = 8 + static_cast<unsigned>(rng.next() % 56);
            p.seed = seed * 131 + s;
            sys->addGenerator(p);
        }
        break;
    }
    case TrafficSkew::HotSource: {
        TrafficParams hot;
        hot.source = 0;
        hot.demand = 45.0 + 15.0 * rng.uniform();
        hot.rowLocality = 0.85 + 0.1 * rng.uniform();
        hot.writeFraction = 0.3 * rng.uniform();
        hot.mlp = 48 + static_cast<unsigned>(rng.next() % 16);
        hot.seed = seed * 131;
        sys->addGenerator(hot);
        const unsigned trickles =
            2 + static_cast<unsigned>(rng.next() % 2);
        for (unsigned s = 1; s <= trickles; ++s) {
            TrafficParams p;
            p.source = s;
            p.demand = 0.8 + 1.5 * rng.uniform();
            p.rowLocality = 0.3 + 0.5 * rng.uniform();
            p.writeFraction = 0.5 * rng.uniform();
            p.mlp = 2 + static_cast<unsigned>(rng.next() % 3);
            p.seed = seed * 131 + s;
            sys->addGenerator(p);
        }
        break;
    }
    case TrafficSkew::Bursts: {
        const unsigned gens = 3 + static_cast<unsigned>(rng.next() % 2);
        for (unsigned s = 0; s < gens; ++s) {
            TrafficParams p;
            p.source = s;
            p.demand = 1.5 + 2.5 * rng.uniform();
            p.rowLocality = 0.3 + 0.65 * rng.uniform();
            p.writeFraction = 0.5 * rng.uniform();
            p.mlp = 8 + static_cast<unsigned>(rng.next() % 9);
            p.seed = seed * 131 + s;
            sys->addGenerator(p);
        }
        break;
    }
    }
    return sys;
}

void
expectIdenticalStats(DramSystem &a, DramSystem &b, const char *label)
{
    SCOPED_TRACE(label);
    const ControllerStats &sa = a.controller().stats();
    const ControllerStats &sb = b.controller().stats();
    EXPECT_EQ(sa.reads, sb.reads);
    EXPECT_EQ(sa.writes, sb.writes);
    EXPECT_EQ(sa.rowHits, sb.rowHits);
    EXPECT_EQ(sa.rowMisses, sb.rowMisses);
    EXPECT_EQ(sa.refreshes, sb.refreshes);
    EXPECT_EQ(sa.bytesTransferred, sb.bytesTransferred);
    EXPECT_EQ(sa.completed, sb.completed);
    EXPECT_EQ(sa.totalLatency, sb.totalLatency);
    for (unsigned s = 0; s < Scheduler::maxSources; ++s) {
        EXPECT_EQ(sa.bytesPerSource[s], sb.bytesPerSource[s])
            << "source " << s;
        EXPECT_EQ(sa.completedPerSource[s], sb.completedPerSource[s])
            << "source " << s;
    }
    EXPECT_EQ(a.now(), b.now());
    EXPECT_EQ(a.controller().pendingRequests(),
              b.controller().pendingRequests());
}

/**
 * Segmented run: several short run() calls (instead of one long one)
 * so mid-flight queue states are crossed by the outer loop boundary,
 * plus a measurement reset partway to cover stats-window interplay.
 */
void
runSegmented(DramSystem &sys)
{
    sys.run(700);
    sys.run(300);
    sys.resetMeasurement();
    for (int i = 0; i < 5; ++i)
        sys.run(1100);
}

/** One two-way differential run of a (policy, seed, skew) triple. */
void
twoWayCheck(const std::string &policy, std::uint64_t seed,
            TrafficSkew skew, Cycles starvation_threshold = 600,
            unsigned depth = 16)
{
    SCOPED_TRACE("seed " + std::to_string(seed) + ", depth " +
                 std::to_string(depth));

    auto ref = buildFuzzSystem(policy, seed, DramRunMode::Reference,
                               skew, starvation_threshold, depth);
    runSegmented(*ref);
    auto fast = buildFuzzSystem(policy, seed, DramRunMode::EventDriven,
                                skew, starvation_threshold, depth);
    runSegmented(*fast);

    expectIdenticalStats(*ref, *fast, "reference vs event-driven");

    // The scratch buffers are reserved to queue capacity up
    // front; any regrowth under saturation is a regression.
    EXPECT_EQ(ref->controller().scratchReallocations(), 0u);
    EXPECT_EQ(fast->controller().scratchReallocations(), 0u);
}

class FastPathDifferential
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(FastPathDifferential, TwoWayAgreement)
{
    for (std::uint64_t seed = 1; seed <= 4; ++seed)
        twoWayCheck(GetParam(), seed, TrafficSkew::Mixed);
    // Deeper queues hold more than FCFS's 16-entry issue window, so
    // its decline past the window is compared too.
    for (std::uint64_t seed = 1; seed <= 2; ++seed)
        twoWayCheck(GetParam(), seed, TrafficSkew::Mixed, 600, 32);
}

TEST_P(FastPathDifferential, TwoWayAgreementHotSource)
{
    SCOPED_TRACE("skew HotSource");
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        twoWayCheck(GetParam(), seed, TrafficSkew::HotSource);
}

TEST_P(FastPathDifferential, TwoWayAgreementBursts)
{
    SCOPED_TRACE("skew Bursts");
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        twoWayCheck(GetParam(), seed, TrafficSkew::Bursts);
}

/**
 * ATLAS's starved tier under a short starvation threshold, so most
 * evaluations have a long starved prefix and its inner ordering
 * (attained service, then row hit, then age) decides the pick.
 */
TEST(AtlasStarvedTier, TwoWayAgreementShortThreshold)
{
    for (TrafficSkew skew : {TrafficSkew::Mixed, TrafficSkew::HotSource,
                             TrafficSkew::Bursts}) {
        for (std::uint64_t seed = 1; seed <= 3; ++seed)
            twoWayCheck("ATLAS", seed, skew, 150);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPolicies, FastPathDifferential,
    ::testing::ValuesIn(schedulerNames()),
    [](const ::testing::TestParamInfo<std::string> &param_info) {
        std::string name = param_info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace pccs::dram

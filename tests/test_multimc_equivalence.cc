/**
 * @file
 * Bit-exact equivalence harness for the multi-controller run modes.
 *
 * Mirrors tests/test_dram_equivalence.cc for MultiMcSystem:
 *
 *  1. Golden pinning: the lockstep loop's statistics on a frozen
 *     workload matrix were captured from the pre-refactor simulator
 *     (whose only loop was lockstep), so the rework is proven
 *     behavior-preserving in absolute terms for every mode, not
 *     merely self-consistent.
 *
 *  2. Cross-mode equivalence: lockstep and event-driven runs of the
 *     same system must agree on every per-controller stat, every
 *     per-source counter, and the exact achieved-bandwidth doubles —
 *     across every registered scheduling policy, both mappings, and
 *     controller counts {2, 3, 4}. Under RangePartitioned, 4 MCs give
 *     every source a slice on one controller, while at 3 MCs source
 *     21's slice straddles a boundary, so one source is served (and
 *     woken) by two controllers whose completions can land in the
 *     same cycle; 2 MCs pair sources per controller. LineInterleaved
 *     spreads every source over every controller.
 *
 * Set PCCS_POLICY_FILTER=name[,name...] to restrict the policy axis —
 * CI uses this to fan each policy out to its own job.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "dram/multi_mc.hh"

namespace pccs::dram {
namespace {

/**
 * Policies under test: all registered names, unless the
 * PCCS_POLICY_FILTER environment variable names a comma-separated
 * subset (each token resolved through the registry, so aliases and
 * case-insensitive spellings work).
 */
std::vector<std::string>
testPolicies()
{
    static const std::vector<std::string> policies = [] {
        const char *filter = std::getenv("PCCS_POLICY_FILTER");
        if (filter == nullptr || *filter == '\0')
            return schedulerNames();
        std::vector<std::string> out;
        std::string tok;
        for (const char *c = filter;; ++c) {
            if (*c == ',' || *c == '\0') {
                if (!tok.empty())
                    out.push_back(schedulerFromName(tok).name);
                tok.clear();
                if (*c == '\0')
                    break;
            } else {
                tok += *c;
            }
        }
        return out;
    }();
    return policies;
}

/**
 * FROZEN: this exact construction produced the golden numbers below
 * from the pre-refactor lockstep simulator. Do not change it; add new
 * cases to the cross-mode matrix instead.
 *
 * Source ids are spread over the address space so that slices are
 * clean at 4 controllers but straddle boundaries at 3 (64/3 is not
 * integral).
 */
std::unique_ptr<MultiMcSystem>
buildSystem(std::string_view policy, unsigned mcs, McMapping mapping,
            double scale, std::uint64_t seed, McRunMode mode,
            const SchedulerParams &sched_params = {})
{
    DramConfig cfg = table1Config();
    cfg.channels = 1;
    cfg.requestBufferEntries = 64;
    auto sys = std::make_unique<MultiMcSystem>(cfg, mcs, policy,
                                               mapping, sched_params,
                                               mode);

    struct Gen
    {
        unsigned source;
        double demand, locality, writeFrac;
        unsigned mlp;
    };
    const Gen gens[6] = {{0, 2.0, 0.97, 0.00, 16},
                         {9, 6.0, 0.90, 0.20, 32},
                         {21, 12.0, 0.60, 0.00, 64},
                         {30, 4.0, 0.85, 0.35, 48},
                         {45, 9.0, 0.75, 0.10, 32},
                         {58, 3.0, 0.95, 0.00, 24}};
    for (const Gen &g : gens) {
        TrafficParams p;
        p.source = g.source;
        p.demand = g.demand * scale;
        p.rowLocality = g.locality;
        p.writeFraction = g.writeFrac;
        p.mlp = g.mlp;
        p.seed = seed * 131 + g.source;
        sys->addGenerator(p);
    }
    return sys;
}

constexpr Cycles kWarmup = 3000;
constexpr Cycles kWindow = 20000;

void
runWindow(MultiMcSystem &sys)
{
    sys.run(kWarmup);
    sys.resetMeasurement();
    sys.run(kWindow);
}

const McMapping kMappings[] = {McMapping::LineInterleaved,
                               McMapping::RangePartitioned};

const McRunMode kModes[] = {McRunMode::Lockstep,
                            McRunMode::EventDriven};

/** Compare every observable of two runs of the same configuration. */
void
expectIdentical(MultiMcSystem &a, MultiMcSystem &b)
{
    ASSERT_EQ(a.numControllers(), b.numControllers());
    for (unsigned m = 0; m < a.numControllers(); ++m) {
        SCOPED_TRACE(testing::Message() << "mc " << m);
        const ControllerStats &sa = a.controller(m).stats();
        const ControllerStats &sb = b.controller(m).stats();
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
            EXPECT_EQ(sa.completedPerSource[s],
                      sb.completedPerSource[s])
                << "source " << s;
        }
        EXPECT_EQ(a.controller(m).pendingRequests(),
                  b.controller(m).pendingRequests());
        EXPECT_EQ(a.bytesServed(m), b.bytesServed(m));
        // The queued requests themselves, ids included (assigned on
        // acceptance, so lockstep's every-cycle retries of a rejected
        // request cannot shift them).
        const unsigned channels = a.controller(m).config().channels;
        for (unsigned ch = 0; ch < channels; ++ch) {
            const std::vector<Request> qa =
                a.controller(m).queueSnapshot(ch);
            const std::vector<Request> qb =
                b.controller(m).queueSnapshot(ch);
            ASSERT_EQ(qa.size(), qb.size()) << "channel " << ch;
            for (std::size_t k = 0; k < qa.size(); ++k) {
                EXPECT_EQ(qa[k].id, qb[k].id) << "channel " << ch;
                EXPECT_EQ(qa[k].arrival, qb[k].arrival)
                    << "channel " << ch;
                EXPECT_EQ(qa[k].addr, qb[k].addr) << "channel " << ch;
            }
        }
    }
    EXPECT_EQ(a.now(), b.now());
    ASSERT_EQ(a.numGenerators(), b.numGenerators());
    for (std::size_t i = 0; i < a.numGenerators(); ++i) {
        SCOPED_TRACE(testing::Message() << "generator " << i);
        EXPECT_EQ(a.generator(i).issuedLines(),
                  b.generator(i).issuedLines());
        EXPECT_EQ(a.generator(i).completedLines(),
                  b.generator(i).completedLines());
        EXPECT_EQ(a.generator(i).outstanding(),
                  b.generator(i).outstanding());
        // Bandwidth is a float derived from identical integers over an
        // identical window: exact double equality is required.
        EXPECT_EQ(a.achievedBandwidth(i), b.achievedBandwidth(i));
    }
    EXPECT_EQ(a.effectiveBandwidthFraction(),
              b.effectiveBandwidthFraction());
    EXPECT_EQ(a.rowBufferHitRate(), b.rowBufferHitRate());
}

/**
 * Golden statistics captured from the pre-refactor lockstep simulator
 * (4 controllers x 1 channel, seed = 1, default SchedulerParams,
 * warmup 3000 + window 20000), summed over controllers. Any drift
 * here means the rework changed simulated behavior, not just its
 * speed.
 *
 * BLISS/PARBS/MEDUSA post-date that simulator; their rows were pinned
 * from this codebase's lockstep loop (the oracle the other modes are
 * proven against) when each policy landed.
 */
struct GoldenRow
{
    const char *policy;
    McMapping mapping;
    double scale;
    struct
    {
        std::uint64_t reads, writes, rowHits, rowMisses, refreshes,
            bytes, completed, totalLatency;
    } want;
};

// clang-format off
const GoldenRow kGolden[] = {
    {"FCFS", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 343u, 1416u, 4u, 112576u, 1756u, 147077u}},
    {"FCFS", McMapping::LineInterleaved, 2.50,
     {7007u, 917u, 3049u, 4875u, 4u, 507136u, 7925u, 3619450u}},
    {"FCFS", McMapping::RangePartitioned, 0.25,
     {1568u, 194u, 1243u, 519u, 4u, 112768u, 1759u, 100813u}},
    {"FCFS", McMapping::RangePartitioned, 2.50,
     {8947u, 847u, 7615u, 2179u, 4u, 626816u, 9796u, 2981464u}},
    {"FR-FCFS", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 352u, 1407u, 4u, 112576u, 1756u, 146043u}},
    {"FR-FCFS", McMapping::LineInterleaved, 2.50,
     {9115u, 1131u, 4522u, 5724u, 4u, 655744u, 10249u, 3953162u}},
    {"FR-FCFS", McMapping::RangePartitioned, 0.25,
     {1569u, 194u, 1249u, 514u, 4u, 112832u, 1760u, 100016u}},
    {"FR-FCFS", McMapping::RangePartitioned, 2.50,
     {10782u, 1097u, 9288u, 2591u, 4u, 760256u, 11879u, 2902507u}},
    {"ATLAS", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 350u, 1409u, 4u, 112576u, 1756u, 147174u}},
    {"ATLAS", McMapping::LineInterleaved, 2.50,
     {8200u, 1132u, 3949u, 5383u, 4u, 597248u, 9333u, 3617303u}},
    {"ATLAS", McMapping::RangePartitioned, 0.25,
     {1569u, 194u, 1246u, 517u, 4u, 112832u, 1760u, 101457u}},
    {"ATLAS", McMapping::RangePartitioned, 2.50,
     {9728u, 1200u, 8688u, 2240u, 4u, 699392u, 10927u, 2737111u}},
    {"TCM", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 352u, 1407u, 4u, 112576u, 1756u, 146043u}},
    {"TCM", McMapping::LineInterleaved, 2.50,
     {9115u, 1131u, 4522u, 5724u, 4u, 655744u, 10249u, 3953162u}},
    {"TCM", McMapping::RangePartitioned, 0.25,
     {1569u, 194u, 1249u, 514u, 4u, 112832u, 1760u, 100016u}},
    {"TCM", McMapping::RangePartitioned, 2.50,
     {10782u, 1097u, 9288u, 2591u, 4u, 760256u, 11879u, 2902507u}},
    {"SMS", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 352u, 1407u, 4u, 112576u, 1756u, 147279u}},
    {"SMS", McMapping::LineInterleaved, 2.50,
     {8931u, 1106u, 4402u, 5635u, 4u, 642368u, 10040u, 3957728u}},
    {"SMS", McMapping::RangePartitioned, 0.25,
     {1569u, 194u, 1249u, 514u, 4u, 112832u, 1760u, 99787u}},
    {"SMS", McMapping::RangePartitioned, 2.50,
     {10670u, 1067u, 9178u, 2559u, 4u, 751168u, 11728u, 2837031u}},
    {"BLISS", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 352u, 1407u, 4u, 112576u, 1756u, 146124u}},
    {"BLISS", McMapping::LineInterleaved, 2.50,
     {8839u, 1136u, 4274u, 5701u, 4u, 638400u, 9976u, 3906369u}},
    {"BLISS", McMapping::RangePartitioned, 0.25,
     {1569u, 194u, 1248u, 515u, 4u, 112832u, 1760u, 101069u}},
    {"BLISS", McMapping::RangePartitioned, 2.50,
     {10799u, 1099u, 9307u, 2591u, 4u, 761472u, 11895u, 2902473u}},
    {"PARBS", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 351u, 1408u, 4u, 112576u, 1756u, 147138u}},
    {"PARBS", McMapping::LineInterleaved, 2.50,
     {9009u, 1158u, 4560u, 5607u, 4u, 650688u, 10164u, 3850225u}},
    {"PARBS", McMapping::RangePartitioned, 0.25,
     {1569u, 194u, 1249u, 514u, 4u, 112832u, 1760u, 99705u}},
    {"PARBS", McMapping::RangePartitioned, 2.50,
     {10594u, 1122u, 9220u, 2496u, 4u, 749824u, 11715u, 2845209u}},
    {"MEDUSA", McMapping::LineInterleaved, 0.25,
     {1565u, 194u, 352u, 1407u, 4u, 112576u, 1756u, 145843u}},
    {"MEDUSA", McMapping::LineInterleaved, 2.50,
     {8461u, 1074u, 4081u, 5454u, 4u, 610240u, 9533u, 3926487u}},
    {"MEDUSA", McMapping::RangePartitioned, 0.25,
     {1569u, 194u, 1249u, 514u, 4u, 112832u, 1760u, 100460u}},
    {"MEDUSA", McMapping::RangePartitioned, 2.50,
     {10075u, 1052u, 8762u, 2365u, 4u, 712128u, 11130u, 2856703u}},
};
// clang-format on

class GoldenPinning : public ::testing::TestWithParam<McRunMode>
{
};

TEST_P(GoldenPinning, MatchesPreRefactorStats)
{
    const auto selected = [](const char *policy) {
        for (const std::string &name : testPolicies())
            if (name == policy)
                return true;
        return false;
    };
    for (const GoldenRow &row : kGolden) {
        if (!selected(row.policy))
            continue;
        auto sys = buildSystem(row.policy, 4, row.mapping, row.scale,
                               1, GetParam());
        runWindow(*sys);
        std::uint64_t reads = 0, writes = 0, hits = 0, misses = 0,
                      refreshes = 0, bytes = 0, completed = 0,
                      latency = 0;
        for (unsigned m = 0; m < sys->numControllers(); ++m) {
            const ControllerStats &st = sys->controller(m).stats();
            reads += st.reads;
            writes += st.writes;
            hits += st.rowHits;
            misses += st.rowMisses;
            refreshes += st.refreshes;
            bytes += st.bytesTransferred;
            completed += st.completed;
            latency += st.totalLatency;
        }
        SCOPED_TRACE(testing::Message()
                     << row.policy << " "
                     << mcMappingName(row.mapping) << " scale "
                     << row.scale);
        EXPECT_EQ(reads, row.want.reads);
        EXPECT_EQ(writes, row.want.writes);
        EXPECT_EQ(hits, row.want.rowHits);
        EXPECT_EQ(misses, row.want.rowMisses);
        EXPECT_EQ(refreshes, row.want.refreshes);
        EXPECT_EQ(bytes, row.want.bytes);
        EXPECT_EQ(completed, row.want.completed);
        EXPECT_EQ(latency, row.want.totalLatency);
    }
}

INSTANTIATE_TEST_SUITE_P(AllModes, GoldenPinning,
                         ::testing::ValuesIn(kModes),
                         [](const auto &pinfo) {
                             switch (pinfo.param) {
                               case McRunMode::Lockstep:
                                 return "Lockstep";
                               case McRunMode::EventDriven:
                                 return "EventDriven";
                             }
                             return "Unknown";
                         });

TEST(MultiMcEquivalence, CrossModeMatrix)
{
    for (const std::string &policy : testPolicies()) {
        for (McMapping mapping : kMappings) {
            for (unsigned mcs : {2u, 3u, 4u}) {
                for (double scale : {0.25, 2.5}) {
                    for (std::uint64_t seed : {1u, 2u}) {
                        SCOPED_TRACE(testing::Message()
                                     << policy << " "
                                     << mcMappingName(mapping)
                                     << " mcs=" << mcs << " scale="
                                     << scale << " seed=" << seed);
                        auto ref = buildSystem(policy, mcs, mapping,
                                               scale, seed,
                                               McRunMode::Lockstep);
                        runWindow(*ref);
                        auto fast = buildSystem(policy, mcs, mapping,
                                                scale, seed,
                                                McRunMode::EventDriven);
                        runWindow(*fast);
                        expectIdentical(*ref, *fast);
                    }
                }
            }
        }
    }
}

TEST(MultiMcEquivalence, SchedulerTickEventsUnderQuietTraffic)
{
    // Small quanta + low demand: ATLAS quantum folds, TCM shuffle
    // boundaries, and BLISS blacklist clears land inside long quiet
    // stretches; the event-driven loop must wake on the exact boundary
    // cycles per controller.
    SchedulerParams sp;
    sp.quantum = 1700;
    sp.tcmShuffleInterval = 430;
    sp.blissClearInterval = 790;
    for (const char *policy : {"ATLAS", "TCM", "BLISS"}) {
        for (McMapping mapping : kMappings) {
            for (double scale : {0.05, 1.0}) {
                SCOPED_TRACE(testing::Message()
                             << policy << " "
                             << mcMappingName(mapping) << " scale "
                             << scale);
                auto ref = buildSystem(policy, 4, mapping, scale, 3,
                                       McRunMode::Lockstep, sp);
                runWindow(*ref);
                auto fast = buildSystem(policy, 4, mapping, scale, 3,
                                        McRunMode::EventDriven, sp);
                runWindow(*fast);
                expectIdentical(*ref, *fast);
            }
        }
    }
}

TEST(MultiMcEquivalence, TinyRequestBuffersMatrix)
{
    // Two MCs with only 2 or 4 request-buffer entries per channel and
    // twelve sources demanding ~2.3x their combined peak: the
    // event-driven loop leaves blocked and MLP-limited sources
    // unticked, and must
    // still match lockstep (which retries every blocked request every
    // cycle) bit for bit.
    for (const std::string &policy : testPolicies()) {
        for (McMapping mapping : kMappings) {
            for (unsigned per_channel : {2u, 4u}) {
                SCOPED_TRACE(testing::Message()
                             << policy << " " << mcMappingName(mapping)
                             << " entries/ch=" << per_channel);
                auto build = [&](McRunMode mode) {
                    DramConfig cfg = table1Config();
                    cfg.channels = 2;
                    cfg.requestBufferEntries = per_channel * 2;
                    auto sys = std::make_unique<MultiMcSystem>(
                        cfg, 2, policy, mapping, SchedulerParams{},
                        mode);
                    for (unsigned g = 0; g < 12; ++g) {
                        TrafficParams p;
                        p.source = g * 5;
                        p.demand = 4.0 + 1.2 * g;
                        p.rowLocality = g % 2 ? 0.95 : 0.7;
                        p.writeFraction = (g % 3) * 0.15;
                        p.mlp = 4u << (g % 4);
                        p.seed = 700 + g;
                        sys->addGenerator(p);
                    }
                    return sys;
                };
                auto ref = build(McRunMode::Lockstep);
                runWindow(*ref);
                auto fast = build(McRunMode::EventDriven);
                runWindow(*fast);
                expectIdentical(*ref, *fast);
            }
        }
    }
}

TEST(MultiMcEquivalence, ModeSwitchMidRun)
{
    // A system may flip modes between run() calls; state carried
    // across the switch (open rows, tokens, inflight, refresh phase,
    // lazy-scan wake bounds) must line up bit-for-bit with a
    // single-mode run.
    for (McMapping mapping : kMappings) {
        SCOPED_TRACE(mcMappingName(mapping));
        auto ref = buildSystem("FR-FCFS", 4, mapping, 1.0,
                               5, McRunMode::Lockstep);
        auto mixed = buildSystem("FR-FCFS", 4, mapping,
                                 1.0, 5, McRunMode::EventDriven);
        ref->run(9000);
        mixed->run(3000);
        mixed->setRunMode(McRunMode::Lockstep);
        mixed->run(3000);
        mixed->setRunMode(McRunMode::EventDriven);
        mixed->run(3000);
        expectIdentical(*ref, *mixed);
    }
}

} // namespace
} // namespace pccs::dram

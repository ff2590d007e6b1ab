/**
 * @file
 * Bit-exact equivalence harness for the run loops on several memory
 * controllers.
 *
 * Mirrors tests/test_dram_equivalence.cc for DramSystem with a
 * McMapping router in front of its controllers:
 *
 *  1. Golden pinning: the reference loop's statistics on a frozen
 *     workload matrix were captured from the pre-refactor simulator
 *     (whose only multi-controller loop ticked every cycle), so the
 *     rework is proven behavior-preserving in absolute terms for every
 *     mode, not merely self-consistent.
 *
 *  2. Cross-mode equivalence: reference and event-driven runs of the
 *     same system must agree on every per-controller stat, every
 *     per-source counter, and the exact achieved-bandwidth doubles —
 *     across every registered scheduling policy, both mappings, and
 *     controller counts {1, 2, 3, 4}. One controller is the direct
 *     port: sources issue straight into it, not through the router.
 *     Under RangePartitioned, 4 MCs give every source a slice on one
 *     controller, while at 3 MCs source 21's slice straddles a
 *     boundary, so one source is served (and woken) by two
 *     controllers whose completions can land in the same cycle; 2 MCs
 *     pair sources per controller. LineInterleaved spreads every
 *     source over every controller.
 *
 * Set PCCS_POLICY_FILTER=name[,name...] to restrict the policy axis —
 * CI uses this to fan each policy out to its own job.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "dram_equivalence.hh"

namespace pccs::dram {
namespace {

/**
 * FROZEN: this exact construction produced the golden numbers below
 * from the pre-refactor lockstep simulator. Do not change it; add new
 * cases to the cross-mode matrix instead.
 *
 * Source ids are spread over the address space so that slices are
 * clean at 4 controllers but straddle boundaries at 3 (64/3 is not
 * integral).
 */
std::unique_ptr<DramSystem>
buildSystem(std::string_view policy, unsigned mcs, McMapping mapping,
            double scale, std::uint64_t seed, RunMode mode,
            const SchedulerParams &sched_params = {})
{
    DramConfig cfg = table1Config();
    cfg.channels = 1;
    cfg.requestBufferEntries = 64;
    auto sys = std::make_unique<DramSystem>(cfg, mcs, policy,
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
runWindow(DramSystem &sys)
{
    sys.run(kWarmup);
    sys.resetMeasurement();
    sys.run(kWindow);
}

const McMapping kMappings[] = {McMapping::LineInterleaved,
                               McMapping::RangePartitioned};

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

/**
 * GoldenPinning's parameter. gtest prints an enum parameter's raw
 * bytes into the test id, and these ids were fixed when the
 * multi-controller reference loop had an enumerator of value 2 in an
 * enum of its own; the explicit values keep them.
 */
enum class GoldenLoop
{
    EventDriven = 0,
    Reference = 2,
};

const GoldenLoop kLoops[] = {GoldenLoop::Reference,
                             GoldenLoop::EventDriven};

class GoldenPinning : public ::testing::TestWithParam<GoldenLoop>
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
                               1,
                               GetParam() == GoldenLoop::Reference
                                   ? RunMode::Reference
                                   : RunMode::EventDriven);
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
                         ::testing::ValuesIn(kLoops),
                         [](const auto &pinfo) {
                             return pinfo.param == GoldenLoop::Reference
                                        ? "Lockstep"
                                        : "EventDriven";
                         });

TEST(MultiMcEquivalence, CrossModeMatrix)
{
    for (const std::string &policy : testPolicies()) {
        for (McMapping mapping : kMappings) {
            for (unsigned mcs : {1u, 2u, 3u, 4u}) {
                for (double scale : {0.25, 2.5}) {
                    for (std::uint64_t seed : {1u, 2u}) {
                        SCOPED_TRACE(testing::Message()
                                     << policy << " "
                                     << mcMappingName(mapping)
                                     << " mcs=" << mcs << " scale="
                                     << scale << " seed=" << seed);
                        auto ref = buildSystem(policy, mcs, mapping,
                                               scale, seed,
                                               RunMode::Reference);
                        runWindow(*ref);
                        auto fast = buildSystem(policy, mcs, mapping,
                                                scale, seed,
                                                RunMode::EventDriven);
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
                                       RunMode::Reference, sp);
                runWindow(*ref);
                auto fast = buildSystem(policy, 4, mapping, scale, 3,
                                        RunMode::EventDriven, sp);
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
    // unticked, and must still match the reference loop (which
    // retries every blocked request every cycle) bit for bit.
    for (const std::string &policy : testPolicies()) {
        for (McMapping mapping : kMappings) {
            for (unsigned per_channel : {2u, 4u}) {
                SCOPED_TRACE(testing::Message()
                             << policy << " " << mcMappingName(mapping)
                             << " entries/ch=" << per_channel);
                auto build = [&](RunMode mode) {
                    DramConfig cfg = table1Config();
                    cfg.channels = 2;
                    cfg.requestBufferEntries = per_channel * 2;
                    auto sys = std::make_unique<DramSystem>(
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
                auto ref = build(RunMode::Reference);
                runWindow(*ref);
                auto fast = build(RunMode::EventDriven);
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
                               5, RunMode::Reference);
        auto mixed = buildSystem("FR-FCFS", 4, mapping,
                                 1.0, 5, RunMode::EventDriven);
        ref->run(9000);
        mixed->run(3000);
        mixed->setRunMode(RunMode::Reference);
        mixed->run(3000);
        mixed->setRunMode(RunMode::EventDriven);
        mixed->run(3000);
        expectIdentical(*ref, *mixed);
    }
}

} // namespace
} // namespace pccs::dram

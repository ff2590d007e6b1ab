/**
 * @file
 * Tests for the multi-memory-controller subsystem (the Section 5
 * extension): address routing, capacity aggregation, and the
 * isolation property of range-partitioned mappings.
 */

#include <gtest/gtest.h>

#include "dram/system.hh"

namespace pccs::dram {
namespace {

DramConfig
halfConfig()
{
    // Half of the Table 1 system per controller: 2 channels each.
    DramConfig cfg = table1Config();
    cfg.channels = 2;
    cfg.requestBufferEntries = 128;
    return cfg;
}

TEST(MultiMcRouting, InterleavedRotatesLines)
{
    DramSystem sys(halfConfig(), 2, "FR-FCFS",
                   McMapping::LineInterleaved);
    const unsigned line = halfConfig().lineBytes;
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(sys.route(Addr{i} * line), i % 2);
}

TEST(MultiMcRouting, PartitionedSplitsRanges)
{
    DramSystem sys(halfConfig(), 2, "FR-FCFS",
                   McMapping::RangePartitioned);
    const Addr half = sys.addressSpan() / 2;
    EXPECT_EQ(sys.route(0), 0u);
    EXPECT_EQ(sys.route(half - 64), 0u);
    EXPECT_EQ(sys.route(half), 1u);
    EXPECT_EQ(sys.route(sys.addressSpan() - 64), 1u);
}

TEST(MultiMcRouting, LocalAddressesStayInLocalSpan)
{
    for (auto mapping : {McMapping::LineInterleaved,
                         McMapping::RangePartitioned}) {
        DramSystem sys(halfConfig(), 4, "FR-FCFS",
                       mapping);
        const Addr local_span = sys.addressSpan() / 4;
        for (Addr a = 0; a < sys.addressSpan();
             a += sys.addressSpan() / 97) {
            EXPECT_LT(sys.localAddress(a), local_span)
                << mcMappingName(mapping);
        }
    }
}

TEST(MultiMcRouting, InterleavedTranslationIsInjective)
{
    DramSystem sys(halfConfig(), 2, "FR-FCFS",
                   McMapping::LineInterleaved);
    // Distinct global lines must map to distinct (mc, local) pairs.
    const unsigned line = halfConfig().lineBytes;
    std::set<std::pair<unsigned, Addr>> seen;
    for (unsigned i = 0; i < 1000; ++i) {
        const Addr a = Addr{i} * line;
        const auto key =
            std::make_pair(sys.route(a), sys.localAddress(a));
        EXPECT_TRUE(seen.insert(key).second) << "line " << i;
    }
}

TEST(MultiMc, AggregateSpanAndNames)
{
    DramSystem sys(halfConfig(), 2, "FR-FCFS",
                   McMapping::LineInterleaved);
    EXPECT_EQ(sys.numControllers(), 2u);
    EXPECT_EQ(sys.addressSpan(),
              2 * sys.controller(0).mapper().addressSpan());
    EXPECT_STREQ(mcMappingName(McMapping::LineInterleaved),
                 "line-interleaved");
    EXPECT_STREQ(mcMappingName(McMapping::RangePartitioned),
                 "range-partitioned");
}

TEST(MultiMc, InterleavedAggregatesBandwidth)
{
    // One streaming core should draw from both controllers and exceed
    // a single controller's capacity (2 channels = 51.2 GB/s).
    DramSystem sys(halfConfig(), 2, "FR-FCFS",
                   McMapping::LineInterleaved);
    TrafficParams p;
    p.source = 0;
    p.demand = 80.0;
    p.mlp = 128;
    sys.addGenerator(p);
    sys.run(15000);
    sys.resetMeasurement();
    sys.run(60000);
    EXPECT_GT(sys.achievedBandwidth(0), 55.0);
    // Both controllers served a comparable share.
    const double a = static_cast<double>(sys.bytesServed(0));
    const double b = static_cast<double>(sys.bytesServed(1));
    EXPECT_NEAR(a / (a + b), 0.5, 0.05);
}

TEST(MultiMc, PartitionedConfinesASource)
{
    // A source whose private region lies in MC0's range must never
    // touch MC1. (Source regions are address-space slices; source 0's
    // slice is at the bottom.)
    DramSystem sys(halfConfig(), 2, "FR-FCFS",
                   McMapping::RangePartitioned);
    TrafficParams p;
    p.source = 0;
    p.demand = 40.0;
    sys.addGenerator(p);
    sys.run(30000);
    EXPECT_GT(sys.bytesServed(0) + sys.controller(0).pendingRequests(),
              0u);
    EXPECT_EQ(sys.bytesServed(1), 0u);
}

TEST(MultiMc, PartitionedIsolatesInterference)
{
    // Two memory-hungry sources in different partitions interfere far
    // less than under interleaving -- the paper's point that the model
    // must consider the address mapping on multi-MC SoCs.
    auto victim_speed = [](McMapping mapping) {
        // Source 0 -> bottom partition; source 40 -> top partition
        // (64 source slices, so slice 40 is in the upper half).
        auto solo = [&](bool with_aggressor) {
            DramSystem sys(halfConfig(), 2, "FR-FCFS",
                           mapping);
            TrafficParams v;
            v.source = 0;
            v.demand = 40.0;
            v.seed = 3;
            sys.addGenerator(v);
            if (with_aggressor) {
                TrafficParams a;
                a.source = 40;
                a.demand = 45.0;
                a.seed = 7;
                sys.addGenerator(a);
            }
            sys.run(15000);
            sys.resetMeasurement();
            sys.run(50000);
            return static_cast<double>(
                sys.generator(0).completedLines());
        };
        return solo(true) / solo(false);
    };

    const double partitioned =
        victim_speed(McMapping::RangePartitioned);
    const double interleaved =
        victim_speed(McMapping::LineInterleaved);
    EXPECT_GT(partitioned, 0.97) << "different partitions: no sharing";
    EXPECT_GT(partitioned, interleaved - 0.02);
}

TEST(MultiMc, PartitionedDisjointSlicesZeroMutualSlowdown)
{
    // The paper's isolation claim, taken literally: two sources whose
    // private regions live in disjoint partitions share *nothing* —
    // not a queue, not a bank, not a data bus — so the slowdown is
    // exactly zero, not merely small. Every per-source observable
    // must be bit-identical between the solo and co-run simulations,
    // in both run modes.
    for (RunMode mode : {RunMode::Reference, RunMode::EventDriven}) {
        SCOPED_TRACE(runModeName(mode));
        auto run = [&](bool with_other, unsigned keep_source,
                       std::uint64_t &issued, std::uint64_t &completed,
                       GBps &bw) {
            DramSystem sys(halfConfig(), 2, "FR-FCFS",
                           McMapping::RangePartitioned,
                           SchedulerParams{}, mode);
            TrafficParams v;
            v.source = 0;
            v.demand = 40.0;
            v.rowLocality = 0.8;
            v.seed = 3;
            TrafficParams a;
            a.source = 40;
            a.demand = 45.0;
            a.rowLocality = 0.7;
            a.seed = 7;
            std::size_t keep = 0;
            if (keep_source == 0) {
                keep = sys.addGenerator(v);
                if (with_other)
                    sys.addGenerator(a);
            } else {
                if (with_other)
                    sys.addGenerator(v);
                keep = sys.addGenerator(a);
            }
            sys.run(15000);
            sys.resetMeasurement();
            sys.run(50000);
            issued = sys.generator(keep).issuedLines();
            completed = sys.generator(keep).completedLines();
            bw = sys.achievedBandwidth(keep);
        };
        for (unsigned source : {0u, 40u}) {
            SCOPED_TRACE(testing::Message() << "source " << source);
            std::uint64_t solo_issued = 0, solo_completed = 0;
            std::uint64_t corun_issued = 0, corun_completed = 0;
            GBps solo_bw = 0.0, corun_bw = 0.0;
            run(false, source, solo_issued, solo_completed, solo_bw);
            run(true, source, corun_issued, corun_completed, corun_bw);
            EXPECT_EQ(corun_issued, solo_issued);
            EXPECT_EQ(corun_completed, solo_completed);
            EXPECT_EQ(corun_bw, solo_bw);
            EXPECT_GT(solo_completed, 0u);
        }
    }
}

TEST(MultiMc, InterleavedAggregateBandwidthScalesWithMcs)
{
    // LineInterleaved spreads every source over all controllers, so
    // the deliverable aggregate tracks num_mcs x per-MC capacity: four
    // saturating cores on 4 MCs (102.4 GB/s nominal) must clear twice
    // a single 2-channel controller's 51.2 GB/s ceiling, and the load
    // must spread near-evenly across the controllers.
    DramSystem sys(halfConfig(), 4, "FR-FCFS",
                   McMapping::LineInterleaved);
    for (unsigned s = 0; s < 4; ++s) {
        TrafficParams p;
        p.source = s * 16;
        p.demand = 60.0;
        p.mlp = 128;
        p.seed = 11 + s;
        sys.addGenerator(p);
    }
    sys.run(15000);
    sys.resetMeasurement();
    sys.run(60000);
    GBps aggregate = 0.0;
    for (std::size_t i = 0; i < sys.numGenerators(); ++i)
        aggregate += sys.achievedBandwidth(i);
    EXPECT_GT(aggregate, 2 * 51.2);
    std::uint64_t total = 0;
    for (unsigned m = 0; m < 4; ++m)
        total += sys.bytesServed(m);
    for (unsigned m = 0; m < 4; ++m) {
        EXPECT_NEAR(static_cast<double>(sys.bytesServed(m)) /
                        static_cast<double>(total),
                    0.25, 0.05)
            << "mc " << m;
    }
}

TEST(MultiMc, SingleControllerDegeneratesToPlainSystem)
{
    DramSystem sys(table1Config(), 1, "FR-FCFS",
                   McMapping::LineInterleaved);
    TrafficParams p;
    p.source = 0;
    p.demand = 30.0;
    sys.addGenerator(p);
    sys.run(15000);
    sys.resetMeasurement();
    sys.run(50000);
    EXPECT_NEAR(sys.achievedBandwidth(0), 30.0, 2.0);
    EXPECT_GT(sys.rowBufferHitRate(), 0.8);
}

TEST(MultiMcDeath, ZeroControllersPanics)
{
    EXPECT_DEATH(DramSystem(halfConfig(), 0, "FR-FCFS",
                            McMapping::LineInterleaved),
                 "at least one");
}

} // namespace
} // namespace pccs::dram

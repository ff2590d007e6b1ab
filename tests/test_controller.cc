/**
 * @file
 * Unit tests for the DRAM memory controller.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "dram/controller.hh"

namespace pccs::dram {
namespace {

class ControllerTest : public ::testing::Test
{
  protected:

    /** Run the controller for n cycles starting at `now`. */
    void run(Cycles n)
    {
        for (Cycles i = 0; i < n; ++i)
            ctrl.tick(now++);
    }

    std::unique_ptr<MemoryController> owned =
        makeController(table1Config(), "FR-FCFS");
    MemoryController &ctrl = *owned;
    Cycles now = 0;
};

TEST_F(ControllerTest, EnqueueAndComplete)
{
    std::vector<Request> done;
    ctrl.setCompletionCallback(
        [&](const Request &r) { done.push_back(r); });
    ASSERT_TRUE(ctrl.enqueue(0, 0x0, false, now));
    EXPECT_EQ(ctrl.pendingRequests(), 1u);
    run(200);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].source, 0u);
    EXPECT_EQ(ctrl.pendingRequests(), 0u);
    EXPECT_EQ(ctrl.stats().completed, 1u);
    EXPECT_EQ(ctrl.stats().reads, 1u);
    EXPECT_EQ(ctrl.stats().writes, 0u);
}

TEST_F(ControllerTest, ColdAccessIsRowMiss)
{
    ASSERT_TRUE(ctrl.enqueue(0, 0x0, false, now));
    run(200);
    EXPECT_EQ(ctrl.stats().rowMisses, 1u);
    EXPECT_EQ(ctrl.stats().rowHits, 0u);
}

TEST_F(ControllerTest, SecondAccessToOpenRowIsHit)
{
    const DramConfig &cfg = ctrl.config();
    // Two lines in the same row of the same channel/bank.
    const Addr a = 0x0;
    const Addr b = Addr{cfg.lineBytes} * cfg.channels; // next column
    ASSERT_EQ(ctrl.mapper().decode(a).row, ctrl.mapper().decode(b).row);
    ASSERT_EQ(ctrl.mapper().decode(a).bank,
              ctrl.mapper().decode(b).bank);
    ASSERT_TRUE(ctrl.enqueue(0, a, false, now));
    ASSERT_TRUE(ctrl.enqueue(0, b, false, now));
    run(300);
    EXPECT_EQ(ctrl.stats().rowMisses, 1u);
    EXPECT_EQ(ctrl.stats().rowHits, 1u);
    EXPECT_NEAR(ctrl.stats().rowBufferHitRate(), 0.5, 1e-9);
}

TEST_F(ControllerTest, RowConflictRequiresPrechargeLatency)
{
    const DramConfig &cfg = ctrl.config();
    const AddressMapper &map = ctrl.mapper();
    // Two different rows of the same bank (with XOR hash, bump the row
    // until the bank matches).
    const Addr a = 0x0;
    const DecodedAddr loc_a = map.decode(a);
    DecodedAddr loc_b = loc_a;
    Addr b = 0;
    for (std::uint32_t r = loc_a.row + 1; r < cfg.rowsPerBank; ++r) {
        loc_b.row = r;
        b = map.encode(loc_b);
        if (map.decode(b).bank == loc_a.bank)
            break;
    }
    ASSERT_EQ(map.decode(b).bank, loc_a.bank);
    ASSERT_NE(map.decode(b).row, loc_a.row);

    std::vector<Cycles> completions;
    ctrl.setCompletionCallback(
        [&](const Request &r) { completions.push_back(r.completion); });
    ASSERT_TRUE(ctrl.enqueue(0, a, false, now));
    ASSERT_TRUE(ctrl.enqueue(0, b, false, now));
    run(500);
    ASSERT_EQ(completions.size(), 2u);
    // The conflicting access needs tRAS + tRP + tRCD before its CAS.
    const DramTimingParams &t = cfg.timing;
    EXPECT_GE(completions[1],
              t.tRAS + t.tRP + t.tRCD + t.tCL + t.tBURST);
    EXPECT_EQ(ctrl.stats().rowMisses, 2u);
}

TEST_F(ControllerTest, QueueBackpressure)
{
    const DramConfig &cfg = ctrl.config();
    const unsigned cap = cfg.queuePerChannel();
    // Fill channel 0's queue: same channel = stride channels*lineBytes.
    unsigned accepted = 0;
    for (unsigned i = 0; i < cap + 10; ++i) {
        const Addr a = Addr{i} * cfg.lineBytes * cfg.channels;
        if (ctrl.enqueue(0, a, false, now))
            ++accepted;
    }
    EXPECT_EQ(accepted, cap);
    EXPECT_TRUE(ctrl.requestQueue(0x0).full());
    // Another channel still has space.
    EXPECT_FALSE(ctrl.requestQueue(cfg.lineBytes).full());
}

TEST_F(ControllerTest, RejectedEnqueueUsesNoId)
{
    const DramConfig &cfg = ctrl.config();
    const unsigned cap = cfg.queuePerChannel();
    for (unsigned i = 0; i < cap; ++i) {
        ASSERT_TRUE(ctrl.enqueue(
            0, Addr{i} * cfg.lineBytes * cfg.channels, false, now));
    }
    ASSERT_TRUE(ctrl.requestQueue(0x0).full());
    for (int retry = 0; retry < 3; ++retry)
        EXPECT_FALSE(ctrl.enqueue(1, 0x0, false, now));
    // The next accepted request (on another channel) takes the id
    // right after the last accepted one.
    ASSERT_TRUE(ctrl.enqueue(1, cfg.lineBytes, false, now));
    const unsigned full_ch = ctrl.mapper().decode(0x0).channel;
    const unsigned ch = ctrl.mapper().decode(cfg.lineBytes).channel;
    ASSERT_NE(ch, full_ch);
    const std::vector<Request> q = ctrl.queueSnapshot(ch);
    ASSERT_EQ(q.size(), 1u);
    EXPECT_EQ(q[0].id, ctrl.queueSnapshot(full_ch).back().id + 1);
    EXPECT_EQ(ctrl.pendingRequests(), cap + 1);
}

TEST_F(ControllerTest, BytesAccountedPerSource)
{
    ASSERT_TRUE(ctrl.enqueue(3, 0x0, false, now));
    ASSERT_TRUE(ctrl.enqueue(5, 0x40, true, now));
    run(300);
    EXPECT_EQ(ctrl.stats().bytesPerSource[3], 64u);
    EXPECT_EQ(ctrl.stats().bytesPerSource[5], 64u);
    EXPECT_EQ(ctrl.stats().bytesTransferred, 128u);
    EXPECT_EQ(ctrl.stats().writes, 1u);
    EXPECT_EQ(ctrl.stats().completedPerSource[3], 1u);
}

TEST_F(ControllerTest, ResetStatsClearsCounters)
{
    ASSERT_TRUE(ctrl.enqueue(0, 0x0, false, now));
    run(300);
    ASSERT_GT(ctrl.stats().completed, 0u);
    ctrl.resetStats();
    EXPECT_EQ(ctrl.stats().completed, 0u);
    EXPECT_EQ(ctrl.stats().bytesTransferred, 0u);
    EXPECT_EQ(ctrl.stats().rowMisses, 0u);
}

TEST_F(ControllerTest, AverageLatencyPositive)
{
    ASSERT_TRUE(ctrl.enqueue(0, 0x0, false, now));
    run(300);
    const DramTimingParams &t = ctrl.config().timing;
    EXPECT_GE(ctrl.stats().averageLatency(),
              static_cast<double>(t.tRCD + t.tCL + t.tBURST));
}

TEST_F(ControllerTest, EffectiveBandwidthFraction)
{
    // Saturate one channel with row-friendly traffic and check the
    // fraction is positive and below 1.
    const DramConfig &cfg = ctrl.config();
    for (unsigned i = 0; i < 32; ++i)
        ctrl.enqueue(0, Addr{i} * cfg.lineBytes * cfg.channels, false,
                     now);
    run(1000);
    const double frac = ctrl.effectiveBandwidthFraction(1000);
    EXPECT_GT(frac, 0.0);
    EXPECT_LE(frac, 1.0);
}

TEST_F(ControllerTest, SourceLimitEnforced)
{
    EXPECT_DEATH(ctrl.enqueue(Scheduler::maxSources, 0x0, false, now),
                 "source");
}

TEST(ControllerSourceTier, KeptOnlyForPoliciesThatReadIt)
{
    // The per-source FIFOs and masks are compiled into a policy's
    // controller only when its fastPick() reads them: FCFS, FR-FCFS
    // and MEDUSA never do, so their queues keep the tier empty under
    // traffic, while the rank-ordered policies keep it populated.
    const std::vector<std::string> without{"FCFS", "FR-FCFS", "MEDUSA"};
    for (const std::string &name : schedulerNames()) {
        SCOPED_TRACE(name);
        auto ctrl = makeController(table1Config(), name);
        Cycles now = 0;
        unsigned accepted = 0;
        for (unsigned i = 0; i < 96; ++i) {
            const Addr a = (Addr{i} * 0x9E3779B1u) % ctrl->addressSpan();
            accepted += ctrl->enqueue(i % 8, a & ~Addr{63}, i % 3 == 0,
                                      now);
        }
        ASSERT_GT(accepted, 48u);
        for (; now < 40; ++now)
            ctrl->tick(now);
        std::uint64_t sources = 0;
        std::size_t queued = 0;
        for (unsigned ch = 0; ch < ctrl->config().channels; ++ch) {
            sources |= ctrl->channelQueue(ch).activeSourceMask();
            queued += ctrl->channelQueue(ch).size();
        }
        ASSERT_GT(queued, 0u);
        if (std::find(without.begin(), without.end(), name) !=
            without.end()) {
            EXPECT_EQ(sources, 0u);
        } else {
            EXPECT_NE(sources, 0u);
        }
    }
}

TEST(ControllerConfig, PeakBandwidthMatchesTable1)
{
    EXPECT_NEAR(table1Config().peakBandwidth(), 102.4, 1e-9);
}

TEST(ControllerStatsPrint, Gem5StyleDump)
{
    auto owned = makeController(table1Config(), "FR-FCFS");
    MemoryController &ctrl = *owned;
    Cycles now = 0;
    ASSERT_TRUE(ctrl.enqueue(0, 0x0, false, now));
    for (; now < 300; ++now)
        ctrl.tick(now);
    std::ostringstream os;
    ctrl.stats().print(os, "system.mc0");
    const std::string dump = os.str();
    EXPECT_NE(dump.find("system.mc0.reads 1 #"), std::string::npos);
    EXPECT_NE(dump.find("system.mc0.completed 1 #"),
              std::string::npos);
    EXPECT_NE(dump.find("rowBufferHitRate"), std::string::npos);
    // One line per statistic, each carrying a description.
    EXPECT_EQ(std::count(dump.begin(), dump.end(), '\n'), 9);
}

} // namespace
} // namespace pccs::dram

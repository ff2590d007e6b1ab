/**
 * @file
 * Randomized stress tests of the DRAM simulator: random geometries,
 * policies, and traffic mixes must uphold the controller's accounting
 * invariants (and trip none of the timing-legality assertions, which
 * stay armed in every build).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/rng.hh"
#include "dram/system.hh"

namespace pccs::dram {
namespace {

/**
 * gtest prints a parameter without a PrintTo as its raw bytes into the
 * test id. The policy name is held inline, not as a std::string (whose
 * bytes include a heap pointer), so those bytes, and with them every
 * test id `ctest -N` lists, are the same in every build. The struct
 * has no padding, so no indeterminate byte is printed either.
 */
struct FuzzCase
{
    unsigned channels;
    unsigned banks;
    char policy[32];
    std::uint64_t seed;
};
static_assert(sizeof(FuzzCase) == 4 + 4 + 32 + 8, "no padding bytes");

class DramFuzz : public ::testing::TestWithParam<FuzzCase>
{
};

TEST_P(DramFuzz, InvariantsHoldUnderRandomTraffic)
{
    const FuzzCase fc = GetParam();
    Rng rng(fc.seed);

    DramConfig cfg = table1Config();
    cfg.channels = fc.channels;
    cfg.banksPerChannel = fc.banks;
    cfg.requestBufferEntries = 64 * fc.channels;

    DramSystem sys(cfg, fc.policy);
    const unsigned sources = 1 + rng.below(12);
    for (unsigned s = 0; s < sources; ++s) {
        TrafficParams p;
        p.source = s;
        p.demand = rng.uniform(1.0, 40.0);
        p.rowLocality = rng.uniform(0.3, 0.99);
        p.writeFraction = rng.uniform(0.0, 0.5);
        p.mlp = 4 + static_cast<unsigned>(rng.below(60));
        p.seed = fc.seed * 977 + s;
        sys.addGenerator(p);
    }

    // Measure from cycle zero: the CAS/completion balance invariants
    // are only exact when no request straddles the window start.
    sys.run(35000);

    const ControllerStats &st = sys.controller().stats();

    // CAS accounting: every CAS is a read or a write, is a hit or a
    // miss, and moves exactly one line.
    EXPECT_EQ(st.rowHits + st.rowMisses, st.reads + st.writes);
    EXPECT_EQ(st.bytesTransferred,
              (st.reads + st.writes) * cfg.lineBytes);

    // Completions never outrun CAS issues.
    EXPECT_LE(st.completed, st.reads + st.writes);

    // Every source made progress and none outran its issues.
    for (unsigned s = 0; s < sources; ++s) {
        const auto &gen = sys.generator(s);
        EXPECT_GT(gen.completedLines(), 0u) << "source " << s;
        EXPECT_LE(gen.completedLines(), gen.issuedLines())
            << "source " << s;
        EXPECT_LE(gen.outstanding(), 64u);
    }

    // Latency can never beat the raw pipeline minimum.
    if (st.completed > 0) {
        EXPECT_GE(st.averageLatency(),
                  static_cast<double>(cfg.timing.tCL +
                                      cfg.timing.tBURST));
    }

    // Bandwidth accounting stays within the theoretical peak.
    EXPECT_LE(sys.effectiveBandwidthFraction(), 1.0 + 1e-9);

    // Hit-rate is a valid ratio.
    EXPECT_GE(st.rowBufferHitRate(), 0.0);
    EXPECT_LE(st.rowBufferHitRate(), 1.0);
}

std::vector<FuzzCase>
fuzzCases()
{
    std::vector<FuzzCase> cases;
    std::uint64_t seed = 1;
    for (unsigned channels : {1u, 2u, 4u}) {
        for (unsigned banks : {4u, 8u, 16u}) {
            for (const std::string &policy : schedulerNames()) {
                // A name too long for the array would be cut and then
                // fail the registry lookup in the test body.
                FuzzCase c{channels, banks, {}, seed++};
                policy.copy(c.policy, sizeof(c.policy) - 1);
                cases.push_back(c);
            }
        }
    }
    return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, DramFuzz, ::testing::ValuesIn(fuzzCases()),
    [](const ::testing::TestParamInfo<FuzzCase> &param_info) {
        std::string name = param_info.param.policy;
        name.erase(std::remove(name.begin(), name.end(), '-'),
                   name.end());
        return name + "_ch" + std::to_string(param_info.param.channels) +
               "_b" + std::to_string(param_info.param.banks);
    });

TEST(DramDrain, AllRequestsEventuallyComplete)
{
    // Enqueue a burst of conflicting requests directly and tick until
    // the controller drains: nothing may get stuck.
    auto owned = makeController(table1Config(), "ATLAS");
    MemoryController &ctrl = *owned;
    Rng rng(55);
    unsigned accepted = 0;
    std::uint64_t completed = 0;
    ctrl.setCompletionCallback(
        [&](const Request &) { ++completed; });
    Cycles now = 0;
    for (int i = 0; i < 500; ++i) {
        const Addr a = (rng.next() % ctrl.addressSpan()) & ~Addr{63};
        if (ctrl.enqueue(i % 16, a, rng.chance(0.3), now))
            ++accepted;
        ctrl.tick(now++);
    }
    ASSERT_GT(accepted, 100u);
    Cycles waited = 0;
    while (ctrl.pendingRequests() > 0 && waited < 200000) {
        ctrl.tick(now++);
        ++waited;
    }
    EXPECT_EQ(ctrl.pendingRequests(), 0u);
    EXPECT_EQ(completed, accepted);
}

} // namespace
} // namespace pccs::dram

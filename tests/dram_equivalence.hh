/**
 * @file
 * Helpers shared by the two DRAM equivalence harnesses
 * (test_dram_equivalence.cc on one controller,
 * test_multimc_equivalence.cc on several).
 */

#ifndef PCCS_TESTS_DRAM_EQUIVALENCE_HH
#define PCCS_TESTS_DRAM_EQUIVALENCE_HH

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "dram/system.hh"

namespace pccs::dram {

/**
 * Registered policy names, restricted by PCCS_POLICY_FILTER
 * (comma-separated names or aliases, resolved through the registry)
 * when set; CI runs one job per policy.
 */
inline std::vector<std::string>
testPolicies()
{
    const char *env = std::getenv("PCCS_POLICY_FILTER");
    if (!env || !*env)
        return schedulerNames();
    PolicyList parsed = parsePolicyList(env);
    if (!parsed.ok())
        fatal("PCCS_POLICY_FILTER: %s", parsed.error.c_str());
    return std::move(parsed.names);
}

/** Compare every observable of two runs of the same configuration. */
inline void
expectIdentical(const DramSystem &a, const DramSystem &b)
{
    ASSERT_EQ(a.numControllers(), b.numControllers());
    for (unsigned m = 0; m < a.numControllers(); ++m) {
        SCOPED_TRACE(testing::Message() << "mc " << m);
        const MemoryController &ca = a.controller(m);
        const MemoryController &cb = b.controller(m);
        const ControllerStats &sa = ca.stats();
        const ControllerStats &sb = cb.stats();
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
        EXPECT_EQ(ca.pendingRequests(), cb.pendingRequests());
        EXPECT_EQ(a.bytesServed(m), b.bytesServed(m));
        // The queued requests themselves, ids included: ids are
        // assigned on acceptance, so a rejected retry (made every
        // cycle by the reference loop, skipped by the event-driven
        // one) must not shift them.
        ASSERT_EQ(ca.config().channels, cb.config().channels);
        for (unsigned ch = 0; ch < ca.config().channels; ++ch) {
            const std::vector<Request> qa = ca.queueSnapshot(ch);
            const std::vector<Request> qb = cb.queueSnapshot(ch);
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
    ASSERT_EQ(a.numReplays(), b.numReplays());
    for (std::size_t i = 0; i < a.numReplays(); ++i) {
        SCOPED_TRACE(testing::Message() << "replay " << i);
        EXPECT_EQ(a.replay(i).issuedLines(), b.replay(i).issuedLines());
        EXPECT_EQ(a.replay(i).completedLines(),
                  b.replay(i).completedLines());
        EXPECT_EQ(a.replay(i).outstanding(), b.replay(i).outstanding());
    }
    EXPECT_EQ(a.effectiveBandwidthFraction(),
              b.effectiveBandwidthFraction());
    EXPECT_EQ(a.rowBufferHitRate(), b.rowBufferHitRate());
}

} // namespace pccs::dram

#endif // PCCS_TESTS_DRAM_EQUIVALENCE_HH

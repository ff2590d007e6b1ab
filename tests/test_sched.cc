/**
 * @file
 * Tests for the QoS scheduler (src/sched/): job-table handle safety,
 * admission and placement decisions, the incremental slowdown cache,
 * parity with the design explorer's batched grid evaluation, and —
 * the load-bearing one — oracle validation: a pinned arrival trace is
 * scheduled and the accepted schedule replayed through the SoC
 * simulator, checking that every admitted job's *simulated* slowdown
 * honors the SLO the controller promised.
 */

#include <gtest/gtest.h>

#include <vector>

#include "pccs/design.hh"
#include "sched/job_table.hh"
#include "sched/oracle.hh"
#include "sched/qos.hh"
#include "workloads/rodinia.hh"

namespace pccs::sched {
namespace {

// ---------------------------------------------------------------- //
// JobTable                                                          //
// ---------------------------------------------------------------- //

TEST(JobTableTest, StaleAfterRelease)
{
    JobTable t;
    const JobHandle h = t.acquire();
    ASSERT_NE(h, kNoJob);
    ASSERT_NE(t.get(h), nullptr);
    EXPECT_TRUE(t.release(h));
    EXPECT_EQ(t.get(h), nullptr);
    EXPECT_FALSE(t.release(h)) << "double release must fail";
    EXPECT_EQ(t.size(), 0u);
}

TEST(JobTableTest, ZeroHandleIsNoJob)
{
    JobTable t;
    EXPECT_EQ(t.get(kNoJob), nullptr);
    EXPECT_FALSE(t.release(kNoJob));
}

TEST(JobTableTest, ReuseBumpsGeneration)
{
    JobTable t;
    const JobHandle h1 = t.acquire();
    t.get(h1)->name = "first";
    ASSERT_TRUE(t.release(h1));
    const JobHandle h2 = t.acquire();
    // The slot is recycled but the old handle must stay stale.
    EXPECT_NE(h1, h2);
    EXPECT_EQ(t.get(h1), nullptr);
    ASSERT_NE(t.get(h2), nullptr);
}

TEST(JobTableTest, GrowsAcrossChunksWithStableAddresses)
{
    JobTable t;
    std::vector<JobHandle> handles;
    for (std::size_t i = 0; i < 3 * JobTable::kChunk + 7; ++i) {
        handles.push_back(t.acquire());
        t.get(handles.back())->seq = i;
    }
    const Job *first = t.get(handles.front());
    EXPECT_EQ(t.size(), handles.size());
    EXPECT_GE(t.capacity(), handles.size());
    // Growth must never move a live job.
    EXPECT_EQ(t.get(handles.front()), first);
    for (std::size_t i = 0; i < handles.size(); ++i) {
        ASSERT_NE(t.get(handles[i]), nullptr);
        EXPECT_EQ(t.get(handles[i])->seq, i);
    }
    std::size_t visited = 0;
    t.forEach([&](JobHandle, const Job &) { ++visited; });
    EXPECT_EQ(visited, handles.size());
}

// ---------------------------------------------------------------- //
// QosController                                                     //
// ---------------------------------------------------------------- //

class QosTest : public ::testing::Test
{
  protected:
    /** A memory-bound kernel (GPU demand near the interface cap). */
    static soc::KernelProfile memBound()
    {
        soc::KernelProfile k{"mem-bound"};
        k.intensity = 0.01;
        k.locality = 0.9;
        return k;
    }

    JobRequest request(double slo, int pu = -1)
    {
        JobRequest req;
        req.kernel = memBound();
        req.sloSlowdown = slo;
        req.puIndex = pu;
        return req;
    }

    soc::SocConfig soc = soc::xavierLike();
    int gpu = soc.puIndex(soc::PuKind::Gpu);
    int cpu = soc.puIndex(soc::PuKind::Cpu);
};

TEST_F(QosTest, LooseSloAdmitsAtReducedClock)
{
    QosController ctl(soc);
    const Decision d = ctl.submit(request(3.0, gpu));
    ASSERT_EQ(d.kind, DecisionKind::Admitted);
    EXPECT_EQ(d.puIndex, static_cast<std::size_t>(gpu));
    // A 3x slowdown budget leaves clock headroom: the controller must
    // pick the lowest feasible grid clock, not the max.
    EXPECT_LT(d.frequencyMhz, soc.pus[gpu].maxFrequency);
    EXPECT_LE(d.predictedSlowdown, 3.0);
    EXPECT_GT(d.predictedSlowdown, 1.0);
}

TEST_F(QosTest, TightSloNeedsTheFullClock)
{
    QosController ctl(soc);
    const Decision d = ctl.submit(request(1.0, gpu));
    ASSERT_EQ(d.kind, DecisionKind::Admitted);
    EXPECT_EQ(d.frequencyMhz, soc.pus[gpu].maxFrequency);
    EXPECT_EQ(d.predictedSlowdown, 1.0);
}

TEST_F(QosTest, PuAtCapacityQueuesAndPromotesOnComplete)
{
    QosController ctl(soc);
    const Decision first = ctl.submit(request(2.0, gpu));
    ASSERT_EQ(first.kind, DecisionKind::Admitted);

    const Decision second = ctl.submit(request(2.0, gpu));
    EXPECT_EQ(second.kind, DecisionKind::Queued);
    EXPECT_EQ(ctl.queuedCount(), 1u);

    const Completion c = ctl.complete(first.handle);
    EXPECT_TRUE(c.ok);
    ASSERT_EQ(c.promoted.size(), 1u);
    EXPECT_EQ(c.promoted[0].kind, DecisionKind::Admitted);
    EXPECT_EQ(ctl.queuedCount(), 0u);
    EXPECT_EQ(ctl.residentCount(), 1u);
}

TEST_F(QosTest, StrictAdmissionProtectsResidents)
{
    QosController ctl(soc);
    // A resident with essentially zero slack on the GPU ...
    const Decision a = ctl.submit(request(1.0, gpu));
    ASSERT_EQ(a.kind, DecisionKind::Admitted);
    // ... blocks a loose-SLO arrival on the *other* PU, because its
    // memory traffic would push the resident past its own SLO.
    const Decision b = ctl.submit(request(10.0, cpu));
    EXPECT_EQ(b.kind, DecisionKind::Queued);
    EXPECT_NE(b.reason.find("SLO"), std::string::npos) << b.reason;

    // Departure of the fragile resident promotes the waiter.
    const Completion c = ctl.complete(a.handle);
    ASSERT_EQ(c.promoted.size(), 1u);
    EXPECT_EQ(c.promoted[0].kind, DecisionKind::Admitted);
    EXPECT_EQ(c.promoted[0].puIndex, static_cast<std::size_t>(cpu));
}

TEST_F(QosTest, BestEffortAdmitsWhatStrictQueues)
{
    SchedOptions strict;
    QosController a(soc, nullptr, strict);
    ASSERT_EQ(a.submit(request(1.0, gpu)).kind,
              DecisionKind::Admitted);
    ASSERT_EQ(a.submit(request(10.0, cpu)).kind, DecisionKind::Queued);

    SchedOptions be;
    be.policy = AdmissionPolicy::BestEffort;
    QosController b(soc, nullptr, be);
    ASSERT_EQ(b.submit(request(1.0, gpu)).kind,
              DecisionKind::Admitted);
    EXPECT_EQ(b.submit(request(10.0, cpu)).kind,
              DecisionKind::Admitted);
    // The GPU resident's SLO is now (predictably) broken — counted.
    EXPECT_GE(b.stats().expectedViolations, 1u);
}

TEST_F(QosTest, FairnessAdmitsWithinSlack)
{
    // The resident holds slo=1.2; under fairness it may stretch to
    // 1.2 * slack, which a strict controller would not allow.
    SchedOptions fair;
    fair.policy = AdmissionPolicy::FairnessWeighted;
    fair.fairnessSlack = 100.0; // effectively: only the arrival gates
    QosController ctl(soc, nullptr, fair);
    ASSERT_EQ(ctl.submit(request(1.0, gpu)).kind,
              DecisionKind::Admitted);
    EXPECT_EQ(ctl.submit(request(10.0, cpu)).kind,
              DecisionKind::Admitted);

    SchedOptions strict;
    QosController s(soc, nullptr, strict);
    ASSERT_EQ(s.submit(request(1.0, gpu)).kind,
              DecisionKind::Admitted);
    EXPECT_EQ(s.submit(request(10.0, cpu)).kind, DecisionKind::Queued);
}

TEST_F(QosTest, QueueOverflowRejects)
{
    SchedOptions opts;
    opts.maxQueued = 1;
    QosController ctl(soc, nullptr, opts);
    ASSERT_EQ(ctl.submit(request(2.0, gpu)).kind,
              DecisionKind::Admitted);
    ASSERT_EQ(ctl.submit(request(2.0, gpu)).kind,
              DecisionKind::Queued);
    const Decision d = ctl.submit(request(2.0, gpu));
    EXPECT_EQ(d.kind, DecisionKind::Rejected);
    EXPECT_NE(d.reason.find("queue full"), std::string::npos);
    EXPECT_EQ(ctl.stats().rejected, 1u);
}

TEST_F(QosTest, StaleCompleteFails)
{
    QosController ctl(soc);
    const Decision d = ctl.submit(request(2.0, gpu));
    ASSERT_EQ(d.kind, DecisionKind::Admitted);
    EXPECT_TRUE(ctl.complete(d.handle).ok);
    EXPECT_FALSE(ctl.complete(d.handle).ok) << "handle went stale";
    EXPECT_FALSE(ctl.complete(kNoJob).ok);
    EXPECT_EQ(ctl.stats().completed, 1u);
}

TEST_F(QosTest, GridEvaluationMatchesDesignExplorer)
{
    // The controller's admission grid is documented bit-exact with
    // DesignExplorer::corunPerformanceGrid over the same grid, model,
    // and engine.
    QosController ctl(soc);
    const JobRequest req = request(2.0, gpu);
    std::vector<double> mine;
    ASSERT_TRUE(ctl.corunPerformanceGrid(
        req, static_cast<std::size_t>(gpu), 40.0, mine));

    model::DesignExplorer explorer(soc);
    const std::vector<double> theirs = explorer.corunPerformanceGrid(
        static_cast<std::size_t>(gpu), req.kernel,
        ctl.frequencyGrid(static_cast<std::size_t>(gpu)), 40.0,
        ctl.puModel(static_cast<std::size_t>(gpu)));

    ASSERT_EQ(mine.size(), theirs.size());
    for (std::size_t i = 0; i < mine.size(); ++i)
        EXPECT_EQ(mine[i], theirs[i]) << "grid point " << i;
}

TEST_F(QosTest, IncrementalSlowdownMatchesFreshRecompute)
{
    SchedOptions be;
    be.policy = AdmissionPolicy::BestEffort;
    QosController ctl(soc, nullptr, be);
    ASSERT_EQ(ctl.submit(request(1.5, gpu)).kind,
              DecisionKind::Admitted);
    ASSERT_EQ(ctl.submit(request(1.5, cpu)).kind,
              DecisionKind::Admitted);

    // Every resident's cached prediction must match a from-scratch
    // scalar evaluation under the current co-run set.
    ctl.forEachJob([&](JobHandle, const Job &job) {
        const double external = ctl.totalDemand() - job.demand;
        const double rs =
            ctl.puModel(job.puIndex)
                .relativeSpeed(job.demand, std::max(0.0, external));
        const double expected =
            job.fullRate / (job.rate * rs / 100.0);
        EXPECT_NEAR(job.predictedSlowdown, expected,
                    1e-9 * expected);
    });
}

TEST_F(QosTest, RequestWithNoRunnablePuQueues)
{
    QosController ctl(soc);
    JobRequest req;
    req.sloSlowdown = 2.0;
    // Per-PU options, all marked "cannot run".
    req.options.assign(soc.pus.size(), std::nullopt);
    const Decision d = ctl.submit(req);
    EXPECT_EQ(d.kind, DecisionKind::Queued);
}

TEST_F(QosTest, StatsAndEventsAreConsistent)
{
    QosController ctl(soc);
    const Decision a = ctl.submit(request(2.0, gpu));
    const Decision b = ctl.submit(request(2.0, gpu)); // queued
    ASSERT_EQ(a.kind, DecisionKind::Admitted);
    ASSERT_EQ(b.kind, DecisionKind::Queued);
    ctl.complete(a.handle); // promotes b

    const SchedStats &st = ctl.stats();
    EXPECT_EQ(st.submitted, 2u);
    EXPECT_EQ(st.admitted, 2u);
    EXPECT_EQ(st.queued, 1u);
    EXPECT_EQ(st.completed, 1u);
    EXPECT_EQ(st.promoted, 1u);
    EXPECT_GT(st.modelPoints, 0u);

    // Event log: 2 admits + 1 complete, in order.
    ASSERT_EQ(ctl.events().size(), 3u);
    EXPECT_EQ(ctl.events()[0].kind, SchedEvent::Kind::Admit);
    EXPECT_EQ(ctl.events()[1].kind, SchedEvent::Kind::Complete);
    EXPECT_EQ(ctl.events()[1].seq, ctl.events()[0].seq);
    EXPECT_EQ(ctl.events()[2].kind, SchedEvent::Kind::Admit);
}

// ---------------------------------------------------------------- //
// Oracle validation                                                 //
// ---------------------------------------------------------------- //

class OracleTest : public ::testing::Test
{
  protected:
    /** Rodinia arrival with per-PU options (the DLA cannot run it). */
    JobRequest arrival(const std::string &bench, double slo,
                       int pu = -1)
    {
        JobRequest req;
        req.name = bench;
        req.sloSlowdown = slo;
        req.puIndex = pu;
        for (const soc::PuParams &p : soc.pus) {
            if (p.kind == soc::PuKind::Dla)
                req.options.emplace_back(std::nullopt);
            else
                req.options.emplace_back(
                    workloads::rodiniaKernel(bench, p.kind));
        }
        return req;
    }

    soc::SocConfig soc = soc::xavierLike();
};

TEST_F(OracleTest, AdmittedScheduleMeetsSlosInTheSimulator)
{
    // The acceptance-criteria test: schedule a pinned arrival trace
    // under strict admission (with the documented safety margin that
    // absorbs the model's few-percent error) and replay the accepted
    // schedule through the SoC simulator. Every admitted job's
    // *simulated* slowdown must meet its SLO in every interval.
    SchedOptions opts;
    opts.safetyMargin = 0.1;
    QosController ctl(soc, nullptr, opts);

    std::vector<JobHandle> admitted;
    const auto submit = [&](const std::string &bench, double slo,
                            int pu = -1) {
        const Decision d = ctl.submit(arrival(bench, slo, pu));
        if (d.kind == DecisionKind::Admitted)
            admitted.push_back(d.handle);
    };
    const auto complete = [&](std::size_t i) {
        for (const Decision &d : ctl.complete(admitted[i]).promoted)
            admitted.push_back(d.handle);
    };

    const int gpu = soc.puIndex(soc::PuKind::Gpu);
    const int cpu = soc.puIndex(soc::PuKind::Cpu);
    submit("streamcluster", 1.3, gpu);
    submit("hotspot", 2.0, cpu);
    submit("bfs", 1.4);
    submit("srad", 1.2);
    complete(0);
    submit("pathfinder", 1.5);
    complete(1);
    complete(2);
    submit("cfd", 1.6);
    while (!admitted.empty()) {
        complete(admitted.size() - 1);
        admitted.pop_back();
    }

    const OracleReport rep = validateSchedule(soc, ctl.events());
    EXPECT_EQ(rep.jobsChecked, ctl.stats().admitted);
    EXPECT_GT(rep.intervals, 0u);
    EXPECT_GT(rep.checks, 0u);
    EXPECT_EQ(rep.violations, 0u)
        << "worst excess " << rep.worstExcess;
    EXPECT_EQ(rep.attainment(), 1.0);
}

TEST_F(OracleTest, OracleFlagsAKnowinglyOversubscribedSchedule)
{
    // Best-effort admits past the SLOs; the oracle must notice. The
    // controller itself predicted the damage (expectedViolations), so
    // the two ends of the loop agree.
    SchedOptions opts;
    opts.policy = AdmissionPolicy::BestEffort;
    QosController ctl(soc, nullptr, opts);

    const int gpu = soc.puIndex(soc::PuKind::Gpu);
    const int cpu = soc.puIndex(soc::PuKind::Cpu);
    ASSERT_EQ(ctl.submit(arrival("streamcluster", 1.01, gpu)).kind,
              DecisionKind::Admitted);
    ASSERT_EQ(ctl.submit(arrival("srad", 1.01, cpu)).kind,
              DecisionKind::Admitted);
    ASSERT_GE(ctl.stats().expectedViolations, 1u);

    const OracleReport rep = validateSchedule(soc, ctl.events());
    EXPECT_GT(rep.violations, 0u);
    EXPECT_LT(rep.attainment(), 1.0);
    EXPECT_GT(rep.worstExcess, 0.0);
}

TEST_F(OracleTest, EmptyScheduleIsVacuouslyValid)
{
    const OracleReport rep = validateSchedule(soc, {});
    EXPECT_EQ(rep.jobsChecked, 0u);
    EXPECT_EQ(rep.violations, 0u);
    EXPECT_EQ(rep.attainment(), 1.0);
}

} // namespace
} // namespace pccs::sched

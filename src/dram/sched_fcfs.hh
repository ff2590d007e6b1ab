/**
 * @file
 * FCFS and FR-FCFS scheduling policies (Table 2, rows 1-2).
 */

#ifndef PCCS_DRAM_SCHED_FCFS_HH
#define PCCS_DRAM_SCHED_FCFS_HH

#include "dram/scheduler.hh"

namespace pccs::dram {

/**
 * First-come-first-serve: schedules memory requests chronologically,
 * with no locality awareness — a row hit is never preferred over an
 * older miss, which is what collapses the row-buffer hit rate under
 * co-location (Table 3: 47.7% RBH vs FR-FCFS's 91.6%).
 */
class FcfsScheduler final : public Scheduler
{
  public:
    static constexpr bool kPreservesRowHits = false;
    /** In-order issue window: only this many oldest requests compete. */
    static constexpr int window = 16;

    const char *name() const override { return "FCFS"; }
    bool preservesRowHits() const override { return kPreservesRowHits; }
    int pick(unsigned channel, std::span<const QueueEntryView> entries,
             Cycles now) override;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) override;
};

/**
 * First-ready FCFS (Rixner et al.): prioritizes CAS-ready row-hit
 * requests over others; ties broken by age. Maximizes row-buffer hit
 * rate and bandwidth but has no fairness control, so memory-intensive
 * sources can starve others.
 */
class FrFcfsScheduler final : public Scheduler
{
  public:
    const char *name() const override { return "FR-FCFS"; }
    int pick(unsigned channel, std::span<const QueueEntryView> entries,
             Cycles now) override;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) override;
};

/** Register FCFS and FR-FCFS with the policy registry. */
void registerFcfsPolicies();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_FCFS_HH

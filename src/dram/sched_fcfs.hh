/**
 * @file
 * FCFS and FR-FCFS scheduling policies (Table 2, rows 1-2).
 */

#ifndef PCCS_DRAM_SCHED_FCFS_HH
#define PCCS_DRAM_SCHED_FCFS_HH

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

#include "dram/scheduler.hh"

namespace pccs::dram {

/**
 * First-come-first-serve: schedules memory requests chronologically,
 * with no locality awareness — a row hit is never preferred over an
 * older miss, which is what collapses the row-buffer hit rate under
 * co-location (Table 3: 47.7% RBH vs FR-FCFS's 91.6%).
 */
class FcfsScheduler final : public KeyedScheduler<FcfsScheduler>
{
  public:
    static constexpr bool kPreservesRowHits = false;
    /** In-order issue window: only this many oldest requests compete. */
    static constexpr int window = 16;

    const char *name() const override { return "FCFS"; }
    /** Record which queued requests fall inside the window. */
    void prepare(unsigned channel, const RequestQueue &q,
                 Cycles now) override;
    /** (arrival); not eligible past the window. */
    std::optional<Cycles> key(const QueueEntryView &e, unsigned channel,
                              Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;

  private:
    /**
     * Per channel, the id of the first queued request past the window
     * (every request inside it has a smaller id); all ids pass on a
     * channel no prepare() has seen.
     */
    std::vector<std::uint64_t> windowEnd_;
};

/**
 * First-ready FCFS (Rixner et al.): prioritizes CAS-ready row-hit
 * requests over others; ties broken by age. Maximizes row-buffer hit
 * rate and bandwidth but has no fairness control, so memory-intensive
 * sources can starve others.
 */
class FrFcfsScheduler final : public KeyedScheduler<FrFcfsScheduler>
{
  public:
    const char *name() const override { return "FR-FCFS"; }
    /** (!row hit, arrival). */
    std::optional<std::tuple<bool, Cycles>>
    key(const QueueEntryView &e, unsigned channel, Cycles now) const;
    int fastPick(const FastIssueView &view, unsigned channel,
                 Cycles now) const override;
};

/** Register FCFS and FR-FCFS with the policy registry. */
void registerFcfsPolicies();

} // namespace pccs::dram

#endif // PCCS_DRAM_SCHED_FCFS_HH

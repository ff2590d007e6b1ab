/**
 * @file
 * Selection between the two DRAM simulation cores.
 *
 * The event-driven core computes the next "interesting" cycle (inflight
 * completion, refresh deadline, bank/bus/rank timing expiry, scheduler
 * quantum, token-bucket accrual) and jumps straight to it, deciding
 * each woken channel with the policy's mask-based fastPick(); the
 * reference core ticks every bus cycle and decides every channel with
 * the materialized pick(). Both produce bit-identical results (see
 * tests/test_dram_equivalence.cc and tests/test_dram_fastpath.cc);
 * the reference core is kept as the executable specification and as
 * a debugging fallback (`--dram-reference` on the DRAM benches, or
 * PCCS_DRAM_REFERENCE=1 in the environment).
 */

#ifndef PCCS_DRAM_RUN_MODE_HH
#define PCCS_DRAM_RUN_MODE_HH

namespace pccs::dram {

/** Which run loop DramSystem::run uses. */
enum class DramRunMode
{
    EventDriven, //!< cycle-skipping next-event loop (default)
    Reference,   //!< tick every bus cycle (executable specification)
};

/** @return display name of a run mode. */
const char *dramRunModeName(DramRunMode mode);

/**
 * Process-wide default mode for newly constructed systems:
 * EventDriven, unless overridden by setDefaultDramRunMode() or by
 * setting PCCS_DRAM_REFERENCE=1 in the environment.
 */
DramRunMode defaultDramRunMode();

/** Override the process-wide default (e.g., from --dram-reference). */
void setDefaultDramRunMode(DramRunMode mode);

/**
 * Which run loop MultiMcSystem::run uses (the Section 5 extension's
 * analogue of DramRunMode). All three modes are bit-exact against one
 * another (tests/test_multimc_equivalence.cc); they differ only in
 * how the per-cycle work is scheduled:
 *
 *  - EventDriven: one thread, per-MC nextEventCycle/nextIssueEvent
 *    bounds fused into a single min-scan, so stretches on which every
 *    controller and generator is provably quiet are skipped in one
 *    jump (idle channels cost nothing), and on active cycles sources
 *    that provably cannot issue are not ticked;
 *  - Sharded: EventDriven semantics with the controllers spread over
 *    worker threads. RangePartitioned mappings whose sources each
 *    live in a single controller's slice decompose into fully
 *    independent shards (epoch = the whole run, no barriers);
 *    LineInterleaved (and straddling partitioned) workloads share
 *    generator state across MCs with a one-cycle interaction latency,
 *    so controllers run in parallel within each cycle between epoch
 *    barriers (epoch = 1 cycle, the synchronization granularity);
 *  - Lockstep: tick every controller every bus cycle (the original
 *    loop, kept as the executable specification / equivalence oracle).
 */
enum class McRunMode
{
    EventDriven, //!< fused next-event min-scan over controllers
    Sharded,     //!< opt-in parallel shards (PCCS_MC_SHARDS/--mc-parallel)
    Lockstep,    //!< tick every MC every cycle (reference oracle)
};

/** @return display name of a multi-MC run mode. */
const char *mcRunModeName(McRunMode mode);

/**
 * Process-wide default mode for newly constructed MultiMcSystems:
 * EventDriven, unless PCCS_DRAM_REFERENCE=1 selects Lockstep (the
 * same switch that selects the single-controller reference core) or
 * PCCS_MC_SHARDS selects Sharded. Overridable with
 * setDefaultMcRunMode() (e.g., from --mc-parallel).
 */
McRunMode defaultMcRunMode();

/** Override the process-wide default multi-MC run mode. */
void setDefaultMcRunMode(McRunMode mode);

/**
 * Worker-thread cap for sharded multi-MC runs: the value of
 * PCCS_MC_SHARDS, or 0 (= size to min(controllers, hardware threads))
 * when the variable is unset or 0.
 */
unsigned mcShardWorkers();

} // namespace pccs::dram

#endif // PCCS_DRAM_RUN_MODE_HH

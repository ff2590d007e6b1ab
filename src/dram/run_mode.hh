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
 * analogue of DramRunMode). The two modes are bit-exact against each
 * other (tests/test_multimc_equivalence.cc):
 *
 *  - EventDriven: per-MC nextEventCycle/nextIssueEvent bounds fused
 *    into a single min-scan, so stretches on which every controller
 *    and generator is provably quiet are skipped in one jump (idle
 *    channels cost nothing), and on active cycles sources that
 *    provably cannot issue are not ticked;
 *  - Lockstep: tick every controller every bus cycle (the original
 *    loop, kept as the executable specification / equivalence oracle).
 *
 * Both run on the calling thread; independent systems run in parallel
 * as sweep points (runner::SweepEngine::parallelFor).
 */
enum class McRunMode
{
    // Explicit values keep the raw bytes that parameterized test ids
    // print for a mode unchanged.
    EventDriven = 0, //!< fused next-event min-scan over controllers
    Lockstep = 2,    //!< tick every MC every cycle (reference oracle)
};

/** @return display name of a multi-MC run mode. */
const char *mcRunModeName(McRunMode mode);

/**
 * Process-wide default mode for newly constructed MultiMcSystems:
 * EventDriven, unless PCCS_DRAM_REFERENCE=1 selects Lockstep (the
 * same switch that selects the single-controller reference core).
 * Overridable with setDefaultMcRunMode() (e.g., from
 * --dram-reference).
 */
McRunMode defaultMcRunMode();

/** Override the process-wide default multi-MC run mode. */
void setDefaultMcRunMode(McRunMode mode);

} // namespace pccs::dram

#endif // PCCS_DRAM_RUN_MODE_HH

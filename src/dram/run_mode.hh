/**
 * @file
 * Selection between the two DRAM run loops.
 *
 * The event-driven loop computes the next "interesting" cycle (inflight
 * completion, refresh deadline, bank/bus/rank timing expiry, scheduler
 * quantum, token-bucket accrual) over every controller and source and
 * jumps straight to it, deciding each woken channel with the policy's
 * mask-based fastPick(); the reference loop ticks every controller and
 * every source on every bus cycle and decides every channel with the
 * materialized pick(). Both produce bit-identical results, on one
 * controller or many (tests/test_dram_equivalence.cc,
 * tests/test_multimc_equivalence.cc, tests/test_dram_fastpath.cc); the
 * reference loop is kept as the executable specification and as a
 * debugging fallback (`--dram-reference` on the DRAM benches and the
 * CLI, or PCCS_DRAM_REFERENCE=1 in the environment).
 */

#ifndef PCCS_DRAM_RUN_MODE_HH
#define PCCS_DRAM_RUN_MODE_HH

namespace pccs::dram {

/** Which run loop DramSystem::run uses. */
enum class RunMode
{
    EventDriven, //!< cycle-skipping next-event loop (default)
    Reference,   //!< tick every bus cycle (executable specification)
    // Spelling of the frozen perfbench driver; see dram/multi_mc.hh.
    Lockstep = Reference,
};

/** @return display name of a run mode. */
const char *runModeName(RunMode mode);

/**
 * Process-wide default mode for newly constructed systems:
 * EventDriven, unless overridden by setDefaultRunMode() or by setting
 * PCCS_DRAM_REFERENCE=1 in the environment.
 */
RunMode defaultRunMode();

/** Override the process-wide default (e.g., from --dram-reference). */
void setDefaultRunMode(RunMode mode);

} // namespace pccs::dram

#endif // PCCS_DRAM_RUN_MODE_HH

/**
 * @file
 * Address-to-controller mappings of a multi-controller DRAM system
 * (the Section 5 extension; the system itself is dram::DramSystem).
 */

#ifndef PCCS_DRAM_MULTI_MC_HH
#define PCCS_DRAM_MULTI_MC_HH

#include "dram/run_mode.hh"

namespace pccs::dram {

/**
 * How physical addresses map onto the memory controllers, matching
 * the cases the paper discusses:
 *
 *  - LineInterleaved: consecutive cache lines rotate across MCs (the
 *    wide-bus construction recent HSM-SoCs use; applications see the
 *    aggregate bandwidth without placement effort);
 *  - RangePartitioned: each MC owns a contiguous slice of the address
 *    space (sources whose footprints land in different slices do not
 *    interfere at all — the isolation/coordination case the paper
 *    says PCCS can be extended to by considering the mapping).
 */
enum class McMapping
{
    LineInterleaved,
    RangePartitioned,
};

/** @return display name of a mapping. */
const char *mcMappingName(McMapping mapping);

class DramSystem;

// Former names of the one system class and its run mode, kept only for
// the frozen benchmark driver (perfbench/dram_workloads.cc), together
// with RunMode::Lockstep. Nothing else uses them; the next change to
// perfbench/ deletes this block.
using MultiMcSystem = DramSystem;
using DramRunMode = RunMode;
using McRunMode = RunMode;
inline RunMode defaultDramRunMode() { return defaultRunMode(); }
inline RunMode defaultMcRunMode() { return defaultRunMode(); }
inline const char *mcRunModeName(RunMode mode) { return runModeName(mode); }

} // namespace pccs::dram

#endif // PCCS_DRAM_MULTI_MC_HH

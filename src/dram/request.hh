/**
 * @file
 * Memory request representation shared by traffic generators, the
 * memory controller, and scheduling policies.
 */

#ifndef PCCS_DRAM_REQUEST_HH
#define PCCS_DRAM_REQUEST_HH

#include <cstdint>

#include "common/units.hh"

namespace pccs::dram {

/** Physical location of a request after address decoding. */
struct DecodedAddr
{
    unsigned channel = 0;
    unsigned bank = 0;
    std::uint32_t row = 0;
    unsigned column = 0;
};

/** A single cache-line-sized memory request. */
struct Request
{
    /**
     * Monotonically increasing per-controller id, assigned when the
     * controller accepts the request (a rejected enqueue takes none).
     */
    std::uint64_t id = 0;
    /** Id of the requesting core / processing unit. */
    unsigned source = 0;
    /** True for writes, false for reads. */
    bool isWrite = false;
    /** Physical address (line aligned). */
    Addr addr = 0;
    /** Decoded channel/bank/row/column. */
    DecodedAddr loc;
    /** Cycle the request entered the request buffer. */
    Cycles arrival = 0;
    /** Cycle the CAS command was issued (0 until then). */
    Cycles casIssued = 0;
    /** Cycle the data burst completes (0 until scheduled). */
    Cycles completion = 0;
    /** True once the request needed an ACT (row miss/conflict). */
    bool neededActivate = false;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_REQUEST_HH

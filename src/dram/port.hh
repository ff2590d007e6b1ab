/**
 * @file
 * The memory-port interface traffic generators issue through: a
 * MemoryController when a DramSystem has one, else the DramSystem
 * itself, which routes each address to its controller (system.hh).
 */

#ifndef PCCS_DRAM_PORT_HH
#define PCCS_DRAM_PORT_HH

#include "common/units.hh"
#include "dram/request_queue.hh"

namespace pccs::dram {

/** Minimal request-issue interface of a memory subsystem. */
class MemoryPort
{
  public:
    virtual ~MemoryPort() = default;

    /**
     * Enqueue a line-sized request.
     * @return false on backpressure (caller retries the same request)
     */
    virtual bool enqueue(unsigned source, Addr addr, bool is_write,
                         Cycles now) = 0;

    /**
     * The request buffer `addr` lands in: enqueue() of that address is
     * rejected exactly while this queue is full. Lets a blocked source
     * wait on one inline load instead of retrying the enqueue.
     */
    virtual const RequestQueue &requestQueue(Addr addr) const = 0;

    /** @return the transfer granularity, bytes. */
    virtual unsigned lineBytes() const = 0;

    /** @return duration of one controller cycle, seconds. */
    virtual double cycleSeconds() const = 0;

    /** @return bytes of addressable space behind this port. */
    virtual Addr addressSpan() const = 0;
};

} // namespace pccs::dram

#endif // PCCS_DRAM_PORT_HH

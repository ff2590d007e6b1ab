/**
 * @file
 * Physical-address to channel/bank/row/column decoding.
 *
 * Layout (low to high bits):
 *   [line offset | channel | column | bank | row]
 * Channel bits sit directly above the line offset so that consecutive
 * cache lines interleave across channels (the channel-interleaving
 * scheme Section 2.1 and Section 5 of the paper describe). The bank
 * index is optionally XOR-hashed with the low row bits (Table 1's
 * "XOR-based address-to-bank mapping") to spread row conflicts.
 */

#ifndef PCCS_DRAM_ADDRESS_MAP_HH
#define PCCS_DRAM_ADDRESS_MAP_HH

#include "dram/config.hh"
#include "dram/request.hh"

namespace pccs::dram {

/** Decodes physical addresses according to a DramConfig geometry. */
class AddressMapper
{
  public:
    /** Build a mapper for the given geometry (validates power-of-two). */
    explicit AddressMapper(const DramConfig &cfg);

    /** Decode a physical address into channel/bank/row/column. */
    DecodedAddr decode(Addr addr) const;

    /**
     * Inverse of decode: reconstruct the line-aligned physical address
     * for a location. decode(encode(l)) == l for in-range locations.
     */
    Addr encode(const DecodedAddr &loc) const;

    /** @return bytes spanned before the row index wraps. */
    Addr addressSpan() const;

  private:
    unsigned lineShift_;
    unsigned channelBits_;
    unsigned columnBits_;
    unsigned bankBits_;
    unsigned rowBits_;
    bool xorHash_;
};

// Every enqueue and queue lookup decodes, from other translation
// units; defined here so those callers can inline it.
inline DecodedAddr
AddressMapper::decode(Addr addr) const
{
    Addr v = addr >> lineShift_;
    DecodedAddr loc;
    loc.channel = static_cast<unsigned>(v & ((1u << channelBits_) - 1));
    v >>= channelBits_;
    loc.column = static_cast<unsigned>(v & ((1u << columnBits_) - 1));
    v >>= columnBits_;
    unsigned bank = static_cast<unsigned>(v & ((1u << bankBits_) - 1));
    v >>= bankBits_;
    loc.row = static_cast<std::uint32_t>(v & ((1ull << rowBits_) - 1));
    if (xorHash_)
        bank ^= loc.row & ((1u << bankBits_) - 1);
    loc.bank = bank;
    return loc;
}

} // namespace pccs::dram

#endif // PCCS_DRAM_ADDRESS_MAP_HH

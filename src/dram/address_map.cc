#include "address_map.hh"

#include <bit>

#include "common/logging.hh"

namespace pccs::dram {

namespace {

unsigned
log2Exact(unsigned v, const char *what)
{
    PCCS_ASSERT(v > 0 && std::has_single_bit(v),
                "%s (%u) must be a nonzero power of two", what, v);
    return static_cast<unsigned>(std::countr_zero(v));
}

} // namespace

AddressMapper::AddressMapper(const DramConfig &cfg)
    : lineShift_(log2Exact(cfg.lineBytes, "lineBytes")),
      channelBits_(log2Exact(cfg.channels, "channels")),
      columnBits_(log2Exact(cfg.linesPerRow(), "linesPerRow")),
      bankBits_(log2Exact(cfg.banksPerChannel, "banksPerChannel")),
      rowBits_(log2Exact(cfg.rowsPerBank, "rowsPerBank")),
      xorHash_(cfg.xorBankHash)
{
}

Addr
AddressMapper::encode(const DecodedAddr &loc) const
{
    unsigned bank = loc.bank;
    if (xorHash_)
        bank ^= loc.row & ((1u << bankBits_) - 1);
    Addr v = loc.row;
    v = (v << bankBits_) | bank;
    v = (v << columnBits_) | loc.column;
    v = (v << channelBits_) | loc.channel;
    return v << lineShift_;
}

Addr
AddressMapper::addressSpan() const
{
    return Addr{1} << (lineShift_ + channelBits_ + columnBits_ +
                       bankBits_ + rowBits_);
}

} // namespace pccs::dram

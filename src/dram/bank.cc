#include "bank.hh"

#include <bit>

#include "common/logging.hh"

namespace pccs::dram {

ChannelTiming::ChannelTiming(unsigned banks, const DramTimingParams &timing)
    : timing_(timing), banks_(banks)
{
    PCCS_ASSERT(banks > 0, "channel needs at least one bank");
    PCCS_ASSERT(banks <= 64, "open-row bitmask supports <= 64 banks");
}

int
ChannelTiming::firstOpenBank() const
{
    return openRowMask_ ? std::countr_zero(openRowMask_) : -1;
}

} // namespace pccs::dram

/**
 * @file
 * Whole-SoC configurations: the processing units plus the shared
 * memory subsystem, with presets modeled after the paper's two
 * experiment platforms (Table 6).
 */

#ifndef PCCS_SOC_SOC_CONFIG_HH
#define PCCS_SOC_SOC_CONFIG_HH

#include <span>
#include <string>
#include <vector>

#include "soc/memory_model.hh"
#include "soc/pu.hh"

namespace pccs::soc {

/** A heterogeneous shared-memory SoC. */
struct SocConfig
{
    std::string name;
    MemoryParams memory;
    std::vector<PuParams> pus;

    /** @return index of the first PU of `kind`, or -1 if absent. */
    int puIndex(PuKind kind) const;

    /** @return the first PU of `kind`; fatal if absent. */
    const PuParams &pu(PuKind kind) const;

    /** Mutable access to the first PU of `kind`; fatal if absent. */
    PuParams &pu(PuKind kind);

    /**
     * @return a copy with the memory subsystem's bandwidth scaled by
     * `ratio` (frequency and/or channel-count change, Section 3.3).
     */
    SocConfig withMemoryScaled(double ratio) const;
};

/**
 * An SoC modeled after the NVIDIA Jetson AGX Xavier: 8-core Carmel
 * CPU @ 2265 MHz, 512-core Volta GPU @ 1377 MHz, DLA @ 1395 MHz,
 * 137 GB/s of LPDDR4x. The PU-level bandwidth caps match the demands
 * reported in the paper's Figure 2 (CPU 93, GPU 127, DLA 30 GB/s).
 */
SocConfig xavierLike();

/**
 * An SoC modeled after the Qualcomm Snapdragon 855: 8-core Kryo 485
 * CPU @ 1.8 GHz and an Adreno 640 GPU over 34 GB/s of LPDDR4x.
 */
SocConfig snapdragonLike();

/**
 * Build the set of external bandwidth demands totaling `total_demand`
 * GB/s, spread over the SoC's PUs other than `target_pu` in proportion
 * to their draw capabilities (the paper creates external pressure by
 * running calibrator kernels on the other PUs). Demands beyond what
 * the other PUs can draw are clipped, mirroring the note under
 * Figure 3 that actual pressure can be lower than demanded.
 *
 * Writes the demands to the front of `out`, which must have room for
 * one per PU other than `target_pu`, and returns how many it wrote.
 */
std::size_t externalDemands(const SocConfig &soc, std::size_t target_pu,
                            GBps total_demand,
                            std::span<BandwidthDemand> out);

/** externalDemands() into a new vector. */
std::vector<BandwidthDemand> externalDemands(const SocConfig &soc,
                                             std::size_t target_pu,
                                             GBps total_demand);

} // namespace pccs::soc

#endif // PCCS_SOC_SOC_CONFIG_HH

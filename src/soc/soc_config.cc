#include "soc_config.hh"

#include <algorithm>

#include "common/logging.hh"

namespace pccs::soc {

int
SocConfig::puIndex(PuKind kind) const
{
    for (std::size_t i = 0; i < pus.size(); ++i)
        if (pus[i].kind == kind)
            return static_cast<int>(i);
    return -1;
}

const PuParams &
SocConfig::pu(PuKind kind) const
{
    const int idx = puIndex(kind);
    if (idx < 0)
        fatal("SoC '%s' has no %s", name.c_str(), puKindName(kind));
    return pus[idx];
}

PuParams &
SocConfig::pu(PuKind kind)
{
    const int idx = puIndex(kind);
    if (idx < 0)
        fatal("SoC '%s' has no %s", name.c_str(), puKindName(kind));
    return pus[idx];
}

SocConfig
SocConfig::withMemoryScaled(double ratio) const
{
    PCCS_ASSERT(ratio > 0.0, "memory scale ratio must be positive");
    SocConfig c = *this;
    c.memory = memory.scaled(ratio);
    return c;
}

SocConfig
xavierLike()
{
    SocConfig soc;
    soc.name = "xavier-like";

    soc.memory.peakBandwidth = 137.0;
    soc.memory.baseEfficiency = 0.93;
    soc.memory.minEfficiency = 0.55;
    soc.memory.mixPenalty = 0.32;
    soc.memory.localityPenalty = 0.30;
    soc.memory.latencyLoad = 1.0;

    PuParams cpu;
    cpu.name = "Carmel CPU";
    cpu.kind = PuKind::Cpu;
    cpu.frequency = cpu.maxFrequency = 2265.0;
    cpu.flopsPerCycle = 64.0; // 8 cores x 2 FMA x 4-wide SIMD
    cpu.interfaceBandwidth = 93.0;
    cpu.issueBandwidth = 105.0;
    cpu.overlap = 0.95;
    cpu.latencySensitivity = 0.06;
    // The eight cores' combined request streams attain slightly more
    // than a single-agent fair share under the MC's fairness policy.
    cpu.fairShareWeight = 1.1;
    soc.pus.push_back(cpu);

    PuParams gpu;
    gpu.name = "Volta GPU";
    gpu.kind = PuKind::Gpu;
    gpu.frequency = gpu.maxFrequency = 1377.0;
    gpu.flopsPerCycle = 1024.0; // 512 cores x 2 flops
    gpu.interfaceBandwidth = 127.0;
    // Issue headroom places the memory-bound clock knee near 900 MHz
    // (1377 * 127 / 194), matching the Figure 15 observation that
    // streamcluster keeps full speed down to ~900 MHz.
    gpu.issueBandwidth = 194.0;
    gpu.overlap = 0.97;
    gpu.latencySensitivity = 0.06;
    gpu.fairShareWeight = 1.0;
    soc.pus.push_back(gpu);

    PuParams dla;
    dla.name = "DLA";
    dla.kind = PuKind::Dla;
    dla.frequency = dla.maxFrequency = 1395.2;
    dla.flopsPerCycle = 512.0;
    dla.interfaceBandwidth = 30.0;
    dla.issueBandwidth = 34.0;
    dla.overlap = 0.60;
    // The DLA has no thread-level parallelism to hide latency: queueing
    // delay inflates its execution time almost one-for-one, which is
    // why it has no minor contention region (Table 7).
    dla.latencySensitivity = 0.70;
    dla.fairShareWeight = 0.8;
    soc.pus.push_back(dla);

    return soc;
}

SocConfig
snapdragonLike()
{
    SocConfig soc;
    soc.name = "snapdragon-855-like";

    soc.memory.peakBandwidth = 34.0;
    soc.memory.baseEfficiency = 0.93;
    soc.memory.minEfficiency = 0.55;
    soc.memory.mixPenalty = 0.32;
    soc.memory.localityPenalty = 0.30;
    soc.memory.latencyLoad = 1.0;

    PuParams cpu;
    cpu.name = "Kryo 485 CPU";
    cpu.kind = PuKind::Cpu;
    cpu.frequency = cpu.maxFrequency = 1800.0;
    cpu.flopsPerCycle = 32.0;
    cpu.interfaceBandwidth = 20.0;
    cpu.issueBandwidth = 24.0;
    cpu.overlap = 0.94;
    cpu.latencySensitivity = 0.08;
    cpu.fairShareWeight = 1.1;
    soc.pus.push_back(cpu);

    PuParams gpu;
    gpu.name = "Adreno 640 GPU";
    gpu.kind = PuKind::Gpu;
    gpu.frequency = gpu.maxFrequency = 585.0;
    gpu.flopsPerCycle = 1536.0;
    gpu.interfaceBandwidth = 28.0;
    gpu.issueBandwidth = 38.0;
    gpu.overlap = 0.95;
    gpu.latencySensitivity = 0.12;
    gpu.fairShareWeight = 1.0;
    soc.pus.push_back(gpu);

    return soc;
}

std::size_t
externalDemands(const SocConfig &soc, std::size_t target_pu,
                GBps total_demand, std::span<BandwidthDemand> out)
{
    PCCS_ASSERT(target_pu < soc.pus.size(), "bad target PU index %zu",
                target_pu);
    PCCS_ASSERT(out.size() + 1 >= soc.pus.size(),
                "room for %zu external demands, need %zu", out.size(),
                soc.pus.size() - 1);
    if (total_demand <= 0.0)
        return 0;

    double cap_sum = 0.0;
    for (std::size_t i = 0; i < soc.pus.size(); ++i)
        if (i != target_pu)
            cap_sum += soc.pus[i].drawBandwidth();
    if (cap_sum <= 0.0)
        return 0;

    std::size_t n = 0;
    for (std::size_t i = 0; i < soc.pus.size(); ++i) {
        if (i == target_pu)
            continue;
        const GBps cap = soc.pus[i].drawBandwidth();
        const GBps share =
            std::min(cap, total_demand * cap / cap_sum);
        if (share > 0.0) {
            // Calibrator kernels are streaming and row-friendly.
            out[n++] = {share, 0.97, soc.pus[i].fairShareWeight};
        }
    }
    return n;
}

std::vector<BandwidthDemand>
externalDemands(const SocConfig &soc, std::size_t target_pu,
                GBps total_demand)
{
    std::vector<BandwidthDemand> out(soc.pus.size());
    out.resize(externalDemands(soc, target_pu, total_demand, out));
    return out;
}

} // namespace pccs::soc

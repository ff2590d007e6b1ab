#include "exec_model.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace pccs::soc {

ExecutionModel::ExecutionModel(const MemoryParams &mem) : mem_(mem) {}

RateTerms
ExecutionModel::rateTerms(const PuParams &pu, double locality) const
{
    RateTerms terms;
    terms.compute = pu.computeGflops() * 1e9; // flops/s
    PCCS_ASSERT(terms.compute > 0.0, "PU %s has no compute throughput",
                pu.name.c_str());

    // Solo memory service rate: the PU's draw capability bounded by
    // what the memory system delivers to a single source with this
    // stream's row locality.
    const BandwidthDemand solo{1.0, locality, pu.fairShareWeight};
    const double service =
        std::min(pu.drawBandwidth() * bytesPerGB,
                 mem_.effectiveBandwidth({&solo, 1}) * bytesPerGB);
    terms.serviceTime = 1.0 / service; // s per byte, standalone
    terms.overlap = pu.overlap;
    terms.latencySlope =
        pu.latencySensitivity * mem_.params().latencyLoad;
    return terms;
}

StandaloneProfile
ExecutionModel::standalone(const PuParams &pu,
                           const KernelProfile &kernel) const
{
    // Standalone there is no interference and the grant equals the
    // demand, so the achieved rate is the unconstrained rate directly.
    StandaloneProfile prof;
    prof.rate =
        rateTerms(pu, kernel.locality).rate(kernel.intensity, 0.0, 0.0);
    prof.bandwidthDemand = prof.rate / bytesPerGB;
    prof.seconds =
        prof.rate > 0.0 ? kernel.workBytes / prof.rate : 0.0;
    return prof;
}

CorunRates
ExecutionModel::corun(const std::vector<PuParams> &pus,
                      const std::vector<KernelProfile> &kernels) const
{
    PCCS_ASSERT(pus.size() == kernels.size(),
                "corun: %zu PUs vs %zu kernels", pus.size(),
                kernels.size());
    std::vector<BandwidthDemand> demands;
    demands.reserve(pus.size());
    for (std::size_t i = 0; i < pus.size(); ++i) {
        const StandaloneProfile solo = standalone(pus[i], kernels[i]);
        demands.push_back({solo.bandwidthDemand, kernels[i].locality,
                           pus[i].fairShareWeight});
    }

    CorunRates result;
    result.allocation = mem_.allocate(demands);
    double served = 0.0;
    for (GBps g : result.allocation.grants)
        served += g;

    result.rates.reserve(pus.size());
    for (std::size_t i = 0; i < pus.size(); ++i) {
        const double interference =
            result.allocation.effectiveBandwidth > 0.0
                ? (served - result.allocation.grants[i]) /
                      result.allocation.effectiveBandwidth
                : 0.0;
        result.rates.push_back(
            rateTerms(pus[i], kernels[i].locality)
                .rate(kernels[i].intensity, result.allocation.grants[i],
                      interference));
    }
    return result;
}

double
ExecutionModel::relativeSpeed(
    const PuParams &pu, const KernelProfile &kernel,
    std::span<const BandwidthDemand> external) const
{
    DemandBuffer buf(external.size() + 1);
    const std::span<BandwidthDemand> demands = buf.span();
    std::copy(external.begin(), external.end(), demands.begin() + 1);
    InlineBuffer<GBps, inlineDemands> grants(demands.size());
    const RateTerms terms = rateTerms(pu, kernel.locality);
    return relativeSpeedInPlace(pu, kernel, terms,
                                terms.rate(kernel.intensity, 0.0, 0.0),
                                demands, grants.span());
}

double
ExecutionModel::relativeSpeedInPlace(const PuParams &pu,
                                     const KernelProfile &kernel,
                                     const RateTerms &terms,
                                     double solo_rate,
                                     std::span<BandwidthDemand> demands,
                                     std::span<GBps> grants) const
{
    PCCS_ASSERT(!demands.empty(), "relativeSpeedInPlace needs slot 0");
    demands[0] = {solo_rate / bytesPerGB, kernel.locality,
                  pu.fairShareWeight};
    const GBps eff = mem_.allocateInto(demands, grants);
    double served = 0.0;
    for (GBps g : grants)
        served += g;
    const double interference =
        eff > 0.0 ? (served - grants[0]) / eff : 0.0;
    const double corun_rate =
        terms.rate(kernel.intensity, grants[0], interference);
    return solo_rate > 0.0 ? 100.0 * corun_rate / solo_rate : 0.0;
}

} // namespace pccs::soc

#include "simulator.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace pccs::soc {

SocSimulator::SocSimulator(SocConfig config)
    : config_(std::move(config)), model_(config_.memory)
{
    PCCS_ASSERT(!config_.pus.empty(), "SoC has no processing units");
}

StandaloneProfile
SocSimulator::profile(std::size_t pu_index,
                      const KernelProfile &kernel) const
{
    PCCS_ASSERT(pu_index < config_.pus.size(), "bad PU index %zu",
                pu_index);
    return model_.standalone(config_.pus[pu_index], kernel);
}

StandaloneProfile
SocSimulator::profile(PuKind kind, const KernelProfile &kernel) const
{
    const int idx = config_.puIndex(kind);
    if (idx < 0)
        fatal("SoC '%s' has no %s", config_.name.c_str(),
              puKindName(kind));
    return profile(static_cast<std::size_t>(idx), kernel);
}

double
SocSimulator::relativeSpeedUnderPressure(std::size_t pu_index,
                                         const KernelProfile &kernel,
                                         GBps external) const
{
    PCCS_ASSERT(pu_index < config_.pus.size(), "bad PU index %zu",
                pu_index);
    // Slot 0 is the kernel's own demand; the other PUs' synthetic
    // demands are written behind it.
    DemandBuffer buf(config_.pus.size());
    const std::span<BandwidthDemand> demands = buf.span();
    const std::size_t n =
        externalDemands(config_, pu_index, external, demands.subspan(1));
    return model_.relativeSpeedInPlace(config_.pus[pu_index], kernel,
                                       demands.first(n + 1));
}

CorunOutcome
SocSimulator::run(const std::vector<Placement> &placements,
                  StopPolicy stop) const
{
    PCCS_ASSERT(!placements.empty(), "co-run needs placements");
    for (const auto &p : placements) {
        PCCS_ASSERT(p.puIndex < config_.pus.size(),
                    "placement on missing PU index %zu", p.puIndex);
        PCCS_ASSERT(!p.workload.phases.empty(),
                    "workload '%s' has no phases",
                    p.workload.name.c_str());
    }

    struct State
    {
        std::size_t phase = 0;
        double remaining = 0.0; // bytes left in current phase
        double bytesDone = 0.0;
        double soloSeconds = 0.0; // standalone time of completed bytes
        double corunSeconds = 0.0;
        bool finished = false;
    };
    std::vector<State> states(placements.size());
    for (std::size_t i = 0; i < placements.size(); ++i)
        states[i].remaining = placements[i].workload.phases[0].workBytes;

    double now = 0.0;
    const int max_steps = 1 << 20;
    for (int step = 0; step < max_steps; ++step) {
        // Gather the active phase set.
        std::vector<std::size_t> active;
        std::vector<PuParams> pus;
        std::vector<KernelProfile> kernels;
        for (std::size_t i = 0; i < placements.size(); ++i) {
            if (states[i].finished)
                continue;
            active.push_back(i);
            pus.push_back(config_.pus[placements[i].puIndex]);
            kernels.push_back(
                placements[i].workload.phases[states[i].phase]);
        }
        if (active.empty())
            break;

        const CorunRates rates = model_.corun(pus, kernels);

        // Advance to the earliest phase boundary.
        double dt = std::numeric_limits<double>::infinity();
        for (std::size_t a = 0; a < active.size(); ++a) {
            PCCS_ASSERT(rates.rates[a] > 0.0,
                        "stalled placement %zu (zero rate)", active[a]);
            dt = std::min(dt, states[active[a]].remaining /
                                  rates.rates[a]);
        }

        bool someone_finished = false;
        for (std::size_t a = 0; a < active.size(); ++a) {
            State &st = states[active[a]];
            const double moved = rates.rates[a] * dt;
            const StandaloneProfile solo =
                model_.standalone(pus[a], kernels[a]);
            st.bytesDone += moved;
            st.remaining -= moved;
            st.soloSeconds += moved / solo.rate;
            st.corunSeconds += dt;
            if (st.remaining <= 1e-6) {
                const auto &phases =
                    placements[active[a]].workload.phases;
                if (st.phase + 1 < phases.size()) {
                    ++st.phase;
                    st.remaining = phases[st.phase].workBytes;
                } else {
                    st.finished = true;
                    someone_finished = true;
                }
            }
        }
        now += dt;
        if (someone_finished && stop == StopPolicy::FirstFinish)
            break;
    }

    CorunOutcome out;
    out.seconds = now;
    out.placements.resize(placements.size());
    for (std::size_t i = 0; i < placements.size(); ++i) {
        PlacementOutcome &po = out.placements[i];
        const State &st = states[i];
        po.bytesCompleted = st.bytesDone;
        po.corunSeconds = st.corunSeconds;
        po.standaloneSeconds = st.soloSeconds;
        po.finished = st.finished;
        po.relativeSpeed = st.corunSeconds > 0.0
                               ? 100.0 * st.soloSeconds / st.corunSeconds
                               : 100.0;
    }
    return out;
}

} // namespace pccs::soc

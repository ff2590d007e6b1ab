/**
 * @file
 * Figure 2: the percentage of the requested memory bandwidth that is
 * met on each PU under increasing external memory pressure. The
 * requested bandwidths are the PUs' maximum draws (DLA ~30, CPU ~93,
 * GPU ~127 GB/s on the 137 GB/s Xavier-class SoC). The paper's point:
 * contention effects appear even while requested + external demand is
 * below the DRAM peak.
 */

#include <cstdio>

#include "bench/common.hh"
#include "calib/calibrator.hh"
#include "common/table.hh"

using namespace pccs;

int
main()
{
    bench::banner("Bandwidth satisfaction under external pressure",
                  "Figure 2");

    const soc::SocSimulator sim(soc::xavierLike());
    const auto &cfg = sim.config();
    const GBps peak = cfg.memory.peakBandwidth;

    const auto ladder = bench::externalLadder(100.0, 10);
    std::vector<std::string> headers{"PU (requested GB/s)"};
    for (GBps y : ladder)
        headers.push_back("y=" + fmtDouble(y, 0));
    Table t(std::move(headers));

    for (std::size_t p = 0; p < cfg.pus.size(); ++p) {
        // The most bandwidth-hungry kernel the PU can run.
        const soc::KernelProfile k =
            calib::makeCalibrator(sim.model(), cfg.pus[p], 999.0);
        const GBps requested = sim.profile(p, k).bandwidthDemand;

        // Achieved bandwidth = relative speed x requested demand, so
        // the relative speed is the % of requested BW that is met.
        std::vector<double> met(ladder.size());
        sim.relativeSpeedGrid(p, {&k, 1}, ladder, met);
        t.addRow(cfg.pus[p].name + " (" + fmtDouble(requested, 0) + ")",
                 met, 1);
    }
    std::printf("%s\n", t.str().c_str());

    // The A/B/C markers of the figure: external demand where
    // requested + external = DRAM peak, per PU.
    Table marks({"PU", "requested (GB/s)",
                 "external at nominal saturation (GB/s)",
                 "% met already lost at that point"});
    for (std::size_t p = 0; p < cfg.pus.size(); ++p) {
        const soc::KernelProfile k =
            calib::makeCalibrator(sim.model(), cfg.pus[p], 999.0);
        const GBps requested = sim.profile(p, k).bandwidthDemand;
        const GBps saturation_y = peak - requested;
        const double met = sim.relativeSpeedUnderPressure(
            p, k, saturation_y > 0.0 ? saturation_y : 0.0);
        marks.addRow({cfg.pus[p].name, fmtDouble(requested, 1),
                      fmtDouble(saturation_y, 1),
                      fmtDouble(100.0 - met, 1)});
    }
    std::printf("%s\n", marks.str().c_str());

    runner::RunResult artifact = bench::makeArtifact(
        "fig02_bw_satisfaction",
        "Bandwidth satisfaction under external pressure", "Figure 2",
        cfg.name, "all", ladder);
    artifact.addTable("% of requested bandwidth met", t);
    artifact.addTable("nominal saturation points", marks);
    bench::writeArtifact(std::move(artifact));

    std::printf("Key observation (paper, Fig. 2): the %% of requested "
                "bandwidth that is met already drops *before* the\n"
                "sum of requested and external bandwidth reaches the "
                "DRAM peak -- contradicting proportional sharing.\n");
    return 0;
}

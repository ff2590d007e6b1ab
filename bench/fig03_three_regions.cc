/**
 * @file
 * Figure 3: achieved relative speed of synthetic kernels under
 * external pressure, in three standalone-demand classes:
 *   (a) 10-30 GB/s  -- mild, near-linear decline (minor contention)
 *   (b) 40-80 GB/s  -- flat start, steep drop, flat tail (normal)
 *   (c) 80-100 GB/s -- immediate drop, then flat (intensive)
 * Run on the Xavier-class GPU, external pressure 0-100 GB/s.
 */

#include <cstdio>

#include "bench/common.hh"
#include "calib/calibrator.hh"
#include "common/table.hh"

using namespace pccs;

namespace {

void
panel(const soc::SocSimulator &sim, std::size_t gpu, const char *title,
      const std::vector<GBps> &targets, const std::vector<GBps> &ladder,
      runner::RunResult &artifact)
{
    std::printf("--- %s ---\n", title);
    std::vector<std::string> headers{"kernel"};
    for (GBps y : ladder)
        headers.push_back("y=" + fmtDouble(y, 0));
    Table t(std::move(headers));
    std::vector<soc::KernelProfile> kernels;
    for (GBps target : targets)
        kernels.push_back(calib::makeCalibrator(
            sim.model(), sim.config().pus[gpu], target));
    std::vector<double> speeds(kernels.size() * ladder.size());
    sim.relativeSpeedGrid(gpu, kernels, ladder, speeds);
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const GBps x = sim.profile(gpu, kernels[i]).bandwidthDemand;
        const auto row = speeds.begin() + i * ladder.size();
        t.addRow("x=" + fmtDouble(x, 0) + " GB/s",
                 std::vector<double>(row, row + ladder.size()), 1);
    }
    std::printf("%s\n", t.str().c_str());
    artifact.addTable(title, t);
}

} // namespace

int
main()
{
    bench::banner("Synthetic kernels under memory pressure: the three "
                  "contention regions",
                  "Figure 3 (a)(b)(c)");
    const soc::SocSimulator sim(soc::xavierLike());
    const std::size_t gpu = static_cast<std::size_t>(
        sim.config().puIndex(soc::PuKind::Gpu));

    std::vector<GBps> ladder;
    for (GBps y = 0.0; y <= 100.0; y += 10.0)
        ladder.push_back(y);
    runner::RunResult artifact = bench::makeArtifact(
        "fig03_three_regions",
        "Synthetic kernels under memory pressure: the three "
        "contention regions",
        "Figure 3 (a)(b)(c)", sim.config().name,
        sim.config().pus[gpu].name, ladder);

    panel(sim, gpu, "(a) low demand: 10-30 GB/s", {10.0, 20.0, 30.0},
          ladder, artifact);
    panel(sim, gpu, "(b) medium demand: 40-80 GB/s",
          {40.0, 50.0, 60.0, 70.0, 80.0}, ladder, artifact);
    panel(sim, gpu, "(c) high demand: 80-100+ GB/s",
          {85.0, 95.0, 110.0, 125.0}, ladder, artifact);

    bench::writeArtifact(std::move(artifact));

    std::printf(
        "Expected shapes (paper, Fig. 3): (a) mild near-linear decline;"
        "\n(b) flat start, then a near-linear drop, then a flat tail;\n"
        "(c) significant reduction already at small external demand,\n"
        "    flattening once the external demand exceeds a certain "
        "level.\n");
    return 0;
}

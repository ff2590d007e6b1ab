/**
 * @file
 * Extension study (paper Section 5, "Address mapping and multi-MC"):
 * the same aggregate DRAM capacity organized as one 4-channel MC,
 * two 2-channel MCs, or four 1-channel MCs, under line-interleaved vs
 * range-partitioned address mappings. Co-location behavior depends on
 * the mapping: interleaving shares (and contends for) everything;
 * partitioning isolates sources that live in different slices.
 */

#include <chrono>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench/common.hh"
#include "calib/calibrator.hh"
#include "common/table.hh"
#include "dram/system.hh"

using namespace pccs;
using namespace pccs::dram;

namespace {

constexpr Cycles warmup = 15000;
constexpr Cycles window = 60000;

DramConfig
perMcConfig(unsigned channels)
{
    DramConfig cfg = table1Config();
    cfg.channels = channels;
    cfg.requestBufferEntries = 64 * channels;
    return cfg;
}

/** A 30 GB/s victim alone or against three 25 GB/s aggressors. */
calib::DramPoint
studyPoint(unsigned num_mcs, McMapping mapping, bool with_aggressors)
{
    calib::DramPoint p{{.perMcConfig = perMcConfig(4 / num_mcs),
                        .numMcs = num_mcs,
                        .policy = "ATLAS",
                        .mapping = mapping,
                        .warmup = warmup,
                        .window = window},
                       {}};
    // The victim in the bottom address slice; aggressors in slices
    // 20, 36 and 52 of 64.
    p.generators.push_back({.source = 0, .demand = 30.0, .seed = 11});
    for (unsigned i = 0; with_aggressors && i < 3; ++i) {
        p.generators.push_back(
            {.source = 20 + 16 * i, .demand = 25.0, .seed = 100 + i});
    }
    return p;
}

/** Wall-time of one multi-MC calibration sweep in a given run mode. */
double
sweepSeconds(RunMode mode, calib::CalibrationMatrix &out)
{
    calib::McSweepSpec spec;
    spec.perMcConfig = perMcConfig(1);
    spec.numMcs = 4;
    spec.policy = "ATLAS";
    spec.mapping = McMapping::RangePartitioned;
    spec.runMode = mode;
    const auto t0 = std::chrono::steady_clock::now();
    out = calib::calibrateMultiMc(spec);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

} // namespace

int
main(int argc, char **argv)
{
    bench::applyDramRunFlags(argc, argv);
    bench::banner("Multi-MC organizations and address mappings under "
                  "co-location",
                  "Section 5 extension (multi-MC / address mapping)");
    std::printf("Multi-MC run mode: %s\n",
                runModeName(defaultRunMode()));

    std::printf("One 30 GB/s victim vs three 25 GB/s aggressors; "
                "same aggregate capacity (4 x DDR4-3200 channels, "
                "ATLAS scheduling) in every row.\n\n");

    // A solo and a co-run point per organization, all in one batch
    // (with one MC the mapping changes nothing).
    const std::pair<unsigned, McMapping> orgs[] = {
        {1, McMapping::LineInterleaved},  {2, McMapping::LineInterleaved},
        {2, McMapping::RangePartitioned}, {4, McMapping::LineInterleaved},
        {4, McMapping::RangePartitioned}};
    std::vector<calib::DramPoint> points;
    for (const auto &[num_mcs, mapping] : orgs) {
        points.push_back(studyPoint(num_mcs, mapping, false));
        points.push_back(studyPoint(num_mcs, mapping, true));
    }
    std::vector<double> lines(points.size()), bw(points.size()),
        rbh(points.size());
    calib::runDramPoints(
        points, nullptr, [&](std::size_t idx, const DramSystem &sys) {
            double bytes = 0.0;
            for (unsigned m = 0; m < sys.numControllers(); ++m)
                bytes += static_cast<double>(sys.bytesServed(m));
            lines[idx] =
                static_cast<double>(sys.generator(0).completedLines());
            bw[idx] = toGBps(
                bytes, static_cast<double>(window) * sys.cycleSeconds());
            rbh[idx] = 100.0 * sys.rowBufferHitRate();
        });

    Table t({"organization", "mapping", "victim RS (%)",
             "aggregate BW (GB/s)", "RBH (%)"});
    for (std::size_t solo = 0; const auto &[num_mcs, mapping] : orgs) {
        const std::size_t corun = solo + 1;
        char org[32];
        std::snprintf(org, sizeof(org), "%u MC x %u ch", num_mcs,
                      4 / num_mcs);
        t.addRow({org, mcMappingName(mapping),
                  fmtDouble(100.0 * lines[corun] / lines[solo], 1),
                  fmtDouble(bw[corun], 1), fmtDouble(rbh[corun], 1)});
        solo += 2;
    }
    std::printf("%s\n", t.str().c_str());

    // The accelerated calibration sweep against the reference loop:
    // identical matrices from both run modes (the equivalence tests
    // enforce it bit-exactly), so the only thing that changes with the
    // mode is the wall time.
    std::printf("Multi-MC calibration sweep (4 MC x 1 ch, "
                "range-partitioned, ATLAS; 4 victims x 4+1 external "
                "steps):\n\n");
    const char *reference = runModeName(RunMode::Reference);
    Table sweep_t({"run mode", "wall time (s)",
                   std::string("speedup vs ") + reference,
                   "rela[last][last] (%)"});
    calib::CalibrationMatrix matrix;
    const double reference_s = sweepSeconds(RunMode::Reference, matrix);
    const double last = matrix.rela.back().back();
    sweep_t.addRow({reference, fmtDouble(reference_s, 3), "1.0",
                    fmtDouble(last, 1)});
    const double event_s = sweepSeconds(RunMode::EventDriven, matrix);
    sweep_t.addRow({runModeName(RunMode::EventDriven),
                    fmtDouble(event_s, 3),
                    fmtDouble(reference_s / event_s, 1),
                    fmtDouble(matrix.rela.back().back(), 1)});
    std::printf("%s\n", sweep_t.str().c_str());

    runner::RunResult artifact = bench::makeArtifact(
        "ext_multimc",
        "Multi-MC organizations and address mappings under "
        "co-location",
        "Section 5 extension (multi-MC / address mapping)",
        "table1-ddr4", "victim");
    artifact.addTable("victim RS / aggregate BW / RBH", t);
    artifact.addTable("calibration sweep wall time by run mode",
                      sweep_t);
    bench::writeArtifact(std::move(artifact));

    std::printf(
        "Reading: with line interleaving every source stresses every "
        "controller, so the victim contends everywhere\n"
        "(but enjoys the aggregate bandwidth). Range partitioning "
        "confines each source to its slice's controller:\n"
        "sources in different slices stop interfering entirely -- the "
        "mapping-awareness PCCS would need on such SoCs\n"
        "(model the per-partition bandwidth, not the chip-wide peak).\n");
    return 0;
}

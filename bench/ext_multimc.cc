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

struct Result
{
    double victimRelativeSpeed; // %
    double aggregateBandwidth;  // GB/s
    double rowHitRate;          // %
};

Result
study(unsigned num_mcs, McMapping mapping)
{
    const unsigned channels = 4 / num_mcs;
    auto run = [&](bool with_aggressors) {
        DramSystem sys(perMcConfig(channels), num_mcs, "ATLAS",
                       mapping);
        TrafficParams victim;
        victim.source = 0; // bottom address slice
        victim.demand = 30.0;
        victim.seed = 11;
        sys.addGenerator(victim);
        if (with_aggressors) {
            // Aggressors spread across the upper address slices.
            for (unsigned i = 0; i < 3; ++i) {
                TrafficParams p;
                p.source = 20 + 16 * i; // slices 20, 36, 52 of 64
                p.demand = 25.0;
                p.seed = 100 + i;
                sys.addGenerator(p);
            }
        }
        sys.run(warmup);
        sys.resetMeasurement();
        sys.run(window);
        Result r;
        r.victimRelativeSpeed =
            static_cast<double>(sys.generator(0).completedLines());
        double bytes = 0.0;
        for (unsigned m = 0; m < sys.numControllers(); ++m)
            bytes += static_cast<double>(sys.bytesServed(m));
        r.aggregateBandwidth = toGBps(
            bytes, static_cast<double>(window) * sys.cycleSeconds());
        r.rowHitRate = 100.0 * sys.rowBufferHitRate();
        return r;
    };
    const Result solo = run(false);
    Result corun = run(true);
    corun.victimRelativeSpeed =
        100.0 * corun.victimRelativeSpeed / solo.victimRelativeSpeed;
    return corun;
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

    Table t({"organization", "mapping", "victim RS (%)",
             "aggregate BW (GB/s)", "RBH (%)"});
    for (unsigned num_mcs : {1u, 2u, 4u}) {
        for (auto mapping : {McMapping::LineInterleaved,
                             McMapping::RangePartitioned}) {
            if (num_mcs == 1 &&
                mapping == McMapping::RangePartitioned) {
                continue; // identical to interleaved with one MC
            }
            const Result r = study(num_mcs, mapping);
            char org[32];
            std::snprintf(org, sizeof(org), "%u MC x %u ch", num_mcs,
                          4 / num_mcs);
            t.addRow({org, mcMappingName(mapping),
                      fmtDouble(r.victimRelativeSpeed, 1),
                      fmtDouble(r.aggregateBandwidth, 1),
                      fmtDouble(r.rowHitRate, 1)});
        }
    }
    std::printf("%s\n", t.str().c_str());

    // The accelerated calibration sweep (the "lockstep" row is the
    // reference loop): identical matrices from both run modes (the
    // equivalence tests enforce it bit-exactly), so the only thing
    // that changes with the mode is the wall time.
    std::printf("Multi-MC calibration sweep (4 MC x 1 ch, "
                "range-partitioned, ATLAS; 4 victims x 4+1 external "
                "steps):\n\n");
    Table sweep_t({"run mode", "wall time (s)", "speedup vs lockstep",
                   "rela[last][last] (%)"});
    calib::CalibrationMatrix matrix;
    const double reference_s = sweepSeconds(RunMode::Reference, matrix);
    const double last = matrix.rela.back().back();
    sweep_t.addRow({"lockstep", fmtDouble(reference_s, 3), "1.0",
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

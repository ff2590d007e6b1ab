/**
 * @file
 * Throughput of the batched prediction layer, and the wall-clock win
 * of pruned design exploration.
 *
 * Three measurements:
 *
 *  1. grid evaluation: points/s of the scalar `relativeSpeed` loop
 *     (the pre-batching consumer pattern: one virtual call per point)
 *     vs the structure-of-arrays `relativeSpeedBatch` kernel, for the
 *     PCCS and Gables models;
 *  2. broadcast evaluation: the constant-y variant the design
 *     explorer and co-run solver use;
 *  3. design exploration: wall clock of Table-9-style frequency
 *     selection with the full-scan strategy vs the binary-searched
 *     (pruned) strategy.
 *
 * Every batched result is checked bitwise against the scalar path
 * before timing — the bench doubles as the parity oracle, so `--smoke`
 * (tiny sizes, one reset) is a crash/parity test suitable for CI.
 *
 * Flags: --points N (grid points per repetition, default 1M),
 * --reps N (repetitions, best-of, default 5), --smoke (shrink to
 * 4k points / 1 query and skip nothing), --json PATH / --json=PATH
 * (snapshot, default BENCH_predict.json).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "gables/gables.hh"
#include "pccs/batch.hh"
#include "pccs/builder.hh"
#include "pccs/design.hh"
#include "pccs/model.hh"
#include "runner/sweep_engine.hh"
#include "serve/json.hh"
#include "soc/soc_config.hh"
#include "workloads/rodinia.hh"

using namespace pccs;
using serve::Json;

namespace {

model::PccsParams
xavierGpuLikeParams()
{
    model::PccsParams p;
    p.normalBw = 38.1;
    p.intensiveBw = 96.2;
    p.mrmc = 4.9;
    p.cbp = 45.3;
    p.tbwdc = 87.2;
    p.rateN = 1.11;
    p.peakBw = 137.0;
    return p;
}

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Scalar vs batch points/s of one predictor over (xs, ys). */
struct GridResult
{
    double scalarPointsPerSec = 0.0;
    double batchPointsPerSec = 0.0;
    double broadcastPointsPerSec = 0.0;
    double checksum = 0.0; // keeps the loops observable
};

GridResult
measureGrid(const model::SlowdownPredictor &scalar,
            const model::BatchPredictor &batch,
            const std::vector<double> &xs, const std::vector<double> &ys,
            unsigned reps)
{
    const std::size_t n = xs.size();
    std::vector<double> scalar_out(n), batch_out(n), bcast_out(n);

    // Parity first: the timed kernels must be bit-exact with the
    // scalar path, or the speedup is meaningless.
    for (std::size_t i = 0; i < n; ++i)
        scalar_out[i] = scalar.relativeSpeed(xs[i], ys[i]);
    batch.relativeSpeedBatch(xs, ys, batch_out);
    for (std::size_t i = 0; i < n; ++i) {
        if (std::memcmp(&scalar_out[i], &batch_out[i],
                        sizeof(double)) != 0)
            fatal("batch/scalar parity broken at point %zu "
                  "(x=%f y=%f: %.17g vs %.17g)",
                  i, xs[i], ys[i], scalar_out[i], batch_out[i]);
    }
    const double y0 = ys.empty() ? 0.0 : ys[0];
    batch.relativeSpeedBroadcast(xs, y0, bcast_out);
    for (std::size_t i = 0; i < n; ++i) {
        const double want = scalar.relativeSpeed(xs[i], y0);
        if (std::memcmp(&want, &bcast_out[i], sizeof(double)) != 0)
            fatal("broadcast parity broken at point %zu", i);
    }

    GridResult r;
    for (unsigned rep = 0; rep < reps; ++rep) {
        double t0 = nowSeconds();
        for (std::size_t i = 0; i < n; ++i)
            scalar_out[i] = scalar.relativeSpeed(xs[i], ys[i]);
        double t1 = nowSeconds();
        batch.relativeSpeedBatch(xs, ys, batch_out);
        double t2 = nowSeconds();
        batch.relativeSpeedBroadcast(xs, y0, bcast_out);
        double t3 = nowSeconds();

        r.scalarPointsPerSec = std::max(
            r.scalarPointsPerSec,
            t1 > t0 ? static_cast<double>(n) / (t1 - t0) : 0.0);
        r.batchPointsPerSec = std::max(
            r.batchPointsPerSec,
            t2 > t1 ? static_cast<double>(n) / (t2 - t1) : 0.0);
        r.broadcastPointsPerSec = std::max(
            r.broadcastPointsPerSec,
            t3 > t2 ? static_cast<double>(n) / (t3 - t2) : 0.0);
        r.checksum += scalar_out[n / 2] + batch_out[n / 3] +
                      bcast_out[n / 4];
    }
    return r;
}

Json
gridJson(const GridResult &r)
{
    Json j = Json::object();
    j.set("scalarPointsPerSecond", r.scalarPointsPerSec);
    j.set("batchPointsPerSecond", r.batchPointsPerSec);
    j.set("broadcastPointsPerSecond", r.broadcastPointsPerSec);
    j.set("speedup", r.scalarPointsPerSec > 0.0
                         ? r.batchPointsPerSec / r.scalarPointsPerSec
                         : 0.0);
    return j;
}

/**
 * Wall clock of `queries` frequency selections (PCCS-guided and
 * ground truth) with the given strategy.
 */
double
measureExploration(const soc::SocConfig &soc,
                   const soc::KernelProfile &kernel,
                   const std::vector<double> &grid,
                   const std::vector<double> &externals, bool pruned,
                   std::vector<model::DesignSelection> &out)
{
    runner::SweepEngine engine(1);
    model::DesignExplorer explorer(soc, &engine);
    explorer.setPruneSelection(pruned);
    const std::size_t gpu =
        static_cast<std::size_t>(soc.puIndex(soc::PuKind::Gpu));
    const soc::SocSimulator sim(soc);
    const model::PccsModel pccs = model::buildModel(sim, gpu);

    out.clear();
    const double t0 = nowSeconds();
    for (double y : externals) {
        out.push_back(explorer.selectFrequency(gpu, kernel, y, 5.0,
                                               pccs, grid));
        out.push_back(
            explorer.selectFrequencyActual(gpu, kernel, y, 5.0, grid));
    }
    return nowSeconds() - t0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::size_t points = 1u << 20;
    unsigned reps = 5;
    bool smoke = false;
    std::string json_path = "BENCH_predict.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                fatal("flag %s needs a value", arg.c_str());
            return argv[++i];
        };
        if (arg == "--points")
            points = static_cast<std::size_t>(
                std::atoll(value().c_str()));
        else if (arg == "--reps")
            reps = static_cast<unsigned>(std::atoi(value().c_str()));
        else if (arg == "--smoke")
            smoke = true;
        else if (arg == "--json")
            json_path = value();
        else if (arg.rfind("--json=", 0) == 0)
            json_path = arg.substr(7);
        else
            fatal("unknown flag '%s'", arg.c_str());
    }
    if (smoke) {
        points = 4096;
        reps = 1;
    }
    if (points == 0 || reps == 0)
        fatal("--points and --reps must be > 0");

    // Random demands spanning all three regions and both sides of the
    // Gables peak, deterministic across runs.
    Rng rng(0x5EEDull);
    std::vector<double> xs(points), ys(points);
    for (std::size_t i = 0; i < points; ++i) {
        xs[i] = rng.uniform(0.0, 150.0);
        ys[i] = rng.uniform(0.0, 150.0);
    }

    const model::PccsModel pccs(xavierGpuLikeParams());
    const gables::GablesModel gables(137.0);

    std::printf("predict_throughput: %zu points, best of %u\n", points,
                reps);
    const GridResult pccs_r = measureGrid(pccs, pccs, xs, ys, reps);
    std::printf("pccs:   scalar %.1f Mpts/s, batch %.1f Mpts/s "
                "(%.1fx), broadcast %.1f Mpts/s\n",
                pccs_r.scalarPointsPerSec / 1e6,
                pccs_r.batchPointsPerSec / 1e6,
                pccs_r.batchPointsPerSec / pccs_r.scalarPointsPerSec,
                pccs_r.broadcastPointsPerSec / 1e6);
    const GridResult gables_r =
        measureGrid(gables, gables, xs, ys, reps);
    std::printf("gables: scalar %.1f Mpts/s, batch %.1f Mpts/s "
                "(%.1fx), broadcast %.1f Mpts/s\n",
                gables_r.scalarPointsPerSec / 1e6,
                gables_r.batchPointsPerSec / 1e6,
                gables_r.batchPointsPerSec /
                    gables_r.scalarPointsPerSec,
                gables_r.broadcastPointsPerSec / 1e6);

    // Design exploration: Table-9 shape (97-point frequency grid).
    const soc::SocConfig soc = soc::xavierLike();
    const soc::KernelProfile kernel =
        workloads::rodiniaKernel("streamcluster", soc::PuKind::Gpu);
    std::vector<double> grid;
    for (double f = 420.0; f <= 1377.0; f += 10.0)
        grid.push_back(f);
    grid.push_back(1377.0);
    const std::vector<double> externals =
        smoke ? std::vector<double>{40.0}
              : std::vector<double>{10.0, 20.0, 30.0, 40.0, 50.0, 60.0};

    std::vector<model::DesignSelection> scan_sel, pruned_sel;
    const double scan_s = measureExploration(soc, kernel, grid,
                                             externals, false,
                                             scan_sel);
    const double pruned_s = measureExploration(soc, kernel, grid,
                                               externals, true,
                                               pruned_sel);
    if (scan_sel.size() != pruned_sel.size())
        fatal("exploration strategies returned different counts");
    for (std::size_t i = 0; i < scan_sel.size(); ++i) {
        if (scan_sel[i].value != pruned_sel[i].value ||
            scan_sel[i].predictedPerformance !=
                pruned_sel[i].predictedPerformance)
            fatal("pruned selection diverged from full scan at "
                  "query %zu (%.1f vs %.1f)",
                  i, pruned_sel[i].value, scan_sel[i].value);
    }
    std::printf("exploration (%zu queries, %zu-point grid): "
                "full scan %.4f s, pruned %.4f s (%.1fx)\n",
                externals.size() * 2, grid.size(), scan_s, pruned_s,
                pruned_s > 0.0 ? scan_s / pruned_s : 0.0);

    Json out = Json::object();
    out.set("benchmark", "predict_throughput");
    out.set("points", points);
    out.set("reps", reps);
    out.set("smoke", smoke);
    out.set("pccs", gridJson(pccs_r));
    out.set("gables", gridJson(gables_r));
    Json explore = Json::object();
    explore.set("queries", externals.size() * 2);
    explore.set("gridPoints", grid.size());
    explore.set("fullScanSeconds", scan_s);
    explore.set("prunedSeconds", pruned_s);
    explore.set("speedup", pruned_s > 0.0 ? scan_s / pruned_s : 0.0);
    out.set("exploration", std::move(explore));
    if (std::FILE *f = std::fopen(json_path.c_str(), "w")) {
        const std::string text = out.dump();
        std::fwrite(text.data(), 1, text.size(), f);
        std::fputc('\n', f);
        std::fclose(f);
        std::printf("artifact: %s\n", json_path.c_str());
    } else {
        fatal("cannot write %s", json_path.c_str());
    }
    return 0;
}

#include "common.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/statistics.hh"
#include "dram/run_mode.hh"

namespace pccs::bench {

std::vector<std::string>
consumeDramRunFlags(int argc, char **argv)
{
    std::vector<std::string> leftover;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dram-reference") == 0)
            dram::setDefaultRunMode(dram::RunMode::Reference);
        else
            leftover.push_back(argv[i]);
    }
    return leftover;
}

void
applyDramRunFlags(int argc, char **argv)
{
    const std::vector<std::string> leftover =
        consumeDramRunFlags(argc, argv);
    if (!leftover.empty()) {
        std::fprintf(stderr,
                     "usage: %s [--dram-reference]\n"
                     "unknown argument '%s'\n",
                     argv[0], leftover.front().c_str());
        std::exit(2);
    }
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("\n==============================================="
                "=====================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_ref.c_str());
    std::printf("================================================"
                "====================\n\n");
}

std::vector<GBps>
externalLadder(GBps max_external, unsigned steps)
{
    std::vector<GBps> ladder;
    for (unsigned j = 1; j <= steps; ++j)
        ladder.push_back(max_external * j / steps);
    return ladder;
}

double
SweepResult::pccsError() const
{
    return meanAbsPctPointError({pccs.data(), pccs.size()},
                                {actual.data(), actual.size()});
}

double
SweepResult::gablesError() const
{
    return meanAbsPctPointError({gables.data(), gables.size()},
                                {actual.data(), actual.size()});
}

SweepResult
sweepKernel(const soc::SocSimulator &sim, std::size_t pu,
            const soc::KernelProfile &kernel,
            const model::SlowdownPredictor &pccs,
            const model::SlowdownPredictor &gables,
            const std::vector<GBps> &ladder,
            runner::SweepEngine *engine)
{
    runner::SweepEngine &eng =
        engine ? *engine : runner::SweepEngine::global();

    SweepResult r;
    r.name = kernel.name;
    r.demand = eng.profile(sim, pu, kernel).bandwidthDemand;

    std::vector<runner::EvalPoint> points;
    points.reserve(ladder.size());
    for (GBps y : ladder)
        points.push_back({pu, kernel, y});
    r.actual = eng.evaluateBatch(sim, points);

    for (GBps y : ladder) {
        r.pccs.push_back(pccs.relativeSpeed(r.demand, y));
        r.gables.push_back(gables.relativeSpeed(r.demand, y));
    }
    return r;
}

void
printSweepReport(const std::vector<SweepResult> &results,
                 const std::vector<GBps> &ladder)
{
    for (const auto &r : results) {
        std::printf("%s (standalone demand %.1f GB/s)\n",
                    r.name.c_str(), r.demand);
        std::vector<std::string> headers{"series"};
        for (GBps y : ladder)
            headers.push_back("y=" + fmtDouble(y, 0));
        Table t(std::move(headers));
        t.addRow("actual RS (%)", r.actual, 1);
        t.addRow("PCCS RS (%)", r.pccs, 1);
        t.addRow("Gables RS (%)", r.gables, 1);
        std::printf("%s\n", t.str().c_str());
    }
}

void
printErrorSummary(const std::vector<SweepResult> &results,
                  double paper_pccs, double paper_gables)
{
    Table t({"kernel", "demand (GB/s)", "PCCS err (%)",
             "Gables err (%)"});
    double pccs_sum = 0.0, gables_sum = 0.0;
    for (const auto &r : results) {
        t.addRow({r.name, fmtDouble(r.demand, 1),
                  fmtDouble(r.pccsError(), 1),
                  fmtDouble(r.gablesError(), 1)});
        pccs_sum += r.pccsError();
        gables_sum += r.gablesError();
    }
    const double n = static_cast<double>(results.size());
    t.addRow({"AVERAGE", "-", fmtDouble(pccs_sum / n, 1),
              fmtDouble(gables_sum / n, 1)});
    std::printf("%s\n", t.str().c_str());
    std::printf("paper reports (on real hardware): PCCS %.1f%%, "
                "Gables %.1f%%\n",
                paper_pccs, paper_gables);
    std::printf("measured on simulated substrate:  PCCS %.1f%%, "
                "Gables %.1f%%\n\n",
                pccs_sum / n, gables_sum / n);
}

runner::RunResult
makeArtifact(const std::string &experiment, const std::string &title,
             const std::string &paper_ref, const std::string &soc_name,
             const std::string &pu_name,
             const std::vector<GBps> &ladder)
{
    runner::RunResult r;
    r.spec.experiment = experiment;
    r.spec.title = title;
    r.spec.paperRef = paper_ref;
    r.spec.socName = soc_name;
    r.spec.puName = pu_name;
    r.spec.externalBw = ladder;
    return r;
}

runner::RunResult
sweepArtifact(const std::string &experiment, const std::string &title,
              const std::string &paper_ref,
              const soc::SocSimulator &sim, std::size_t pu,
              const std::vector<SweepResult> &results,
              const std::vector<GBps> &ladder)
{
    runner::RunResult r =
        makeArtifact(experiment, title, paper_ref, sim.config().name,
                     sim.config().pus[pu].name, ladder);
    for (const SweepResult &res : results) {
        runner::KernelRun kr;
        kr.name = res.name;
        kr.demand = res.demand;
        kr.series.push_back({"actual", res.actual});
        kr.series.push_back({"pccs", res.pccs});
        kr.series.push_back({"gables", res.gables});
        r.kernels.push_back(std::move(kr));
    }
    Table errors({"kernel", "demand (GB/s)", "PCCS err (%)",
                  "Gables err (%)"});
    for (const SweepResult &res : results) {
        errors.addRow({res.name, fmtDouble(res.demand, 1),
                       fmtDouble(res.pccsError(), 1),
                       fmtDouble(res.gablesError(), 1)});
    }
    r.addTable("mean absolute error vs actual", errors);
    return r;
}

void
writeArtifact(runner::RunResult artifact)
{
    const char *env = std::getenv("PCCS_ARTIFACT_DIR");
    const std::string dir = env && *env ? env : ".";
    const std::string path = artifact.writeArtifacts(dir);
    std::printf("artifact: %s (+ .csv)\n", path.c_str());
}

} // namespace pccs::bench

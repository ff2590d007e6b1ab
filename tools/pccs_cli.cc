/**
 * @file
 * pccs — command-line front end to the library.
 *
 * Subcommands:
 *   calibrate --soc xavier|snapdragon --pu cpu|gpu|dla [--out FILE]
 *       Build a PU's slowdown model from calibrator sweeps and print
 *       (optionally save) its parameters.
 *   predict --model FILE --demand X --external Y
 *   predict --soc S --pu P --demand X --external Y
 *       Predict the achieved relative speed (%) of a kernel.
 *   scale --model FILE --ratio R [--out FILE]
 *       Linearly scale a model to a new memory bandwidth (Sec. 3.3).
 *   explore --soc S --pu P --bench NAME --external Y --allowed PCT
 *       Pick the lowest PU clock meeting a co-run slowdown budget.
 *   region --model FILE --demand X
 *       Classify a demand into its contention region.
 *   sweep --soc S --pu P --bench NAME [--max-external Y] [--steps N]
 *       Sweep a kernel under external pressure through the sweep
 *       engine and write JSON/CSV artifacts.
 *   serve [--host H] [--port N] [--shards N]
 *         [--model NAME=FILE,...] [--calibrate SOC:PU,...]
 *       Run the prediction service: newline-delimited JSON over TCP
 *       (see DESIGN.md sections 9 and 13). --shards (or
 *       PCCS_SERVE_SHARDS) sets the event-loop shard count;
 *       default = hardware concurrency.
 *   client --port N [--host H] (--send JSON | --op OP [fields])
 *       Send one request to a running service and print the response.
 *
 *   schedule [--soc S] [--policy strict|best-effort|fairness]
 *            [--trace FILE] [--capacity N] [--margin F]
 *            [--grid-steps N]
 *       Run the QoS admission controller over an offline arrival
 *       trace (or a built-in demo), then replay the accepted schedule
 *       through the SoC simulator oracle and report SLO attainment.
 *   multimc [--mcs N] [--channels N]
 *           [--mapping interleaved|partitioned] [--policy NAME]
 *           [--kernels N] [--external N]
 *       Calibrate a victim against aggressors on the cycle-accurate
 *       multi-controller DRAM subsystem and print the rela matrix.
 *   policies [--format names|table]
 *       List the registered scheduling policies with their
 *       capability flags (or one name per line for scripts).
 *
 *
 * `pccs --version` prints the tool version. Global options:
 * --jobs N caps the sweep engine's worker threads, which run DRAM
 * calibration points (equivalent to setting PCCS_JOBS=N);
 * --dram-reference selects the per-cycle reference DRAM loop, on one
 * memory controller or many.
 */

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <fstream>

#include "common/logging.hh"
#include "common/table.hh"
#include "gables/gables.hh"
#include "pccs/builder.hh"
#include "pccs/design.hh"
#include "pccs/phase_detect.hh"
#include "pccs/scaling.hh"
#include "pccs/serialize.hh"
#include "runner/run_spec.hh"
#include "runner/sweep_engine.hh"
#include "sched/oracle.hh"
#include "sched/qos.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/server.hh"
#include "workloads/rodinia.hh"

#ifndef PCCS_CLI_VERSION
#define PCCS_CLI_VERSION "0.3.0"
#endif

using namespace pccs;

namespace {

using ArgMap = std::map<std::string, std::string>;

void usage(std::FILE *to);

ArgMap
parseArgs(int argc, char **argv, int first)
{
    ArgMap args;
    for (int i = first; i < argc; ++i) {
        const std::string key = argv[i];
        if (key.rfind("--", 0) != 0)
            fatal("expected --option, got '%s'", key.c_str());
        if (i + 1 >= argc)
            fatal("option '%s' needs a value", key.c_str());
        args[key.substr(2)] = argv[++i];
    }
    return args;
}

const std::string &
require(const ArgMap &args, const std::string &key)
{
    auto it = args.find(key);
    if (it == args.end()) {
        usage(stderr);
        fatal("missing required option --%s", key.c_str());
    }
    return it->second;
}

double
requireDouble(const ArgMap &args, const std::string &key)
{
    try {
        return std::stod(require(args, key));
    } catch (const std::exception &) {
        fatal("option --%s needs a number", key.c_str());
    }
}

/** --key as a whole number in [lo, hi]; anything else is fatal. */
unsigned
requireUnsigned(const ArgMap &args, const std::string &key, unsigned lo,
                unsigned hi)
{
    const std::string &text = require(args, key);
    unsigned value = 0;
    const char *end = text.data() + text.size();
    // Unsigned from_chars takes digits only: no sign, no whitespace.
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi) {
        fatal("option --%s needs a whole number in [%u, %u], got '%s'",
              key.c_str(), lo, hi, text.c_str());
    }
    return value;
}

soc::SocConfig
socByName(const std::string &name)
{
    if (name == "xavier")
        return soc::xavierLike();
    if (name == "snapdragon")
        return soc::snapdragonLike();
    fatal("unknown SoC '%s' (use xavier or snapdragon)", name.c_str());
}

soc::PuKind
puByName(const std::string &name)
{
    if (name == "cpu")
        return soc::PuKind::Cpu;
    if (name == "gpu")
        return soc::PuKind::Gpu;
    if (name == "dla")
        return soc::PuKind::Dla;
    fatal("unknown PU '%s' (use cpu, gpu, or dla)", name.c_str());
}

void
printParams(const model::PccsParams &p)
{
    std::printf("%s", model::paramsToText(p).c_str());
}

model::PccsParams
paramsFromArgs(const ArgMap &args)
{
    if (args.count("model"))
        return model::loadParams(args.at("model"));
    const soc::SocConfig soc = socByName(require(args, "soc"));
    const int pu = soc.puIndex(puByName(require(args, "pu")));
    if (pu < 0)
        fatal("that SoC has no such PU");
    const soc::SocSimulator sim(soc);
    return model::buildModel(sim, static_cast<std::size_t>(pu))
        .params();
}

int
cmdCalibrate(const ArgMap &args)
{
    const soc::SocConfig soc = socByName(require(args, "soc"));
    const int pu = soc.puIndex(puByName(require(args, "pu")));
    if (pu < 0)
        fatal("that SoC has no such PU");
    const soc::SocSimulator sim(soc);
    const model::PccsParams p =
        model::buildModel(sim, static_cast<std::size_t>(pu)).params();
    printParams(p);
    if (args.count("out")) {
        model::saveParams(p, args.at("out"));
        inform("model written to %s", args.at("out").c_str());
    }
    return 0;
}

int
cmdPredict(const ArgMap &args)
{
    const model::PccsParams p = paramsFromArgs(args);
    const model::PccsModel m(p);
    const double x = requireDouble(args, "demand");
    const double y = requireDouble(args, "external");
    std::printf("region:          %s\n",
                model::regionName(m.classify(x)));
    std::printf("relative speed:  %.2f %%\n", m.relativeSpeed(x, y));
    std::printf("slowdown factor: %.3fx\n", m.slowdownFactor(x, y));
    return 0;
}

int
cmdScale(const ArgMap &args)
{
    const model::PccsParams p =
        model::loadParams(require(args, "model"));
    const double ratio = requireDouble(args, "ratio");
    const model::PccsParams scaled = model::scaleParams(p, ratio);
    printParams(scaled);
    if (args.count("out")) {
        model::saveParams(scaled, args.at("out"));
        inform("scaled model written to %s", args.at("out").c_str());
    }
    return 0;
}

int
cmdExplore(const ArgMap &args)
{
    const soc::SocConfig soc = socByName(require(args, "soc"));
    const soc::PuKind kind = puByName(require(args, "pu"));
    const int pu = soc.puIndex(kind);
    if (pu < 0)
        fatal("that SoC has no such PU");
    const soc::KernelProfile kernel =
        workloads::rodiniaKernel(require(args, "bench"), kind);
    const double y = requireDouble(args, "external");
    const double allowed = requireDouble(args, "allowed");

    const soc::SocSimulator sim(soc);
    const model::PccsModel m =
        model::buildModel(sim, static_cast<std::size_t>(pu));
    const model::DesignExplorer explorer(soc);

    std::vector<double> grid;
    const double fmax = soc.pus[pu].maxFrequency;
    for (double f = 0.3 * fmax; f < fmax; f += fmax / 64.0)
        grid.push_back(f);
    grid.push_back(fmax);

    const auto sel = explorer.selectFrequency(
        static_cast<std::size_t>(pu), kernel, y, allowed, m, grid);
    std::printf("selected clock:  %.0f MHz (of %.0f MHz max)\n",
                sel.value, fmax);
    std::printf("predicted co-run performance: %.1f %% of the "
                "full-clock co-run\n",
                100.0 * sel.predictedPerformance /
                    sel.referencePerformance);
    return 0;
}

int
cmdPhases(const ArgMap &args)
{
    // Read whitespace-separated GB/s samples from the trace file.
    const std::string &path = require(args, "trace");
    std::ifstream in(path);
    if (!in)
        fatal("cannot open trace file '%s'", path.c_str());
    std::vector<GBps> trace;
    double v;
    while (in >> v)
        trace.push_back(v);
    if (trace.empty())
        fatal("trace file '%s' has no samples", path.c_str());

    const model::PccsParams p = paramsFromArgs(args);
    const model::PccsModel m(p);
    const double y = requireDouble(args, "external");

    const auto phases = model::detectPhases(trace);
    std::printf("detected %zu phase(s):\n", phases.size());
    for (const auto &ph : phases) {
        std::printf("  samples [%zu, %zu): mean demand %.1f GB/s "
                    "(%.0f%% of time)\n",
                    ph.begin, ph.end, ph.meanDemand,
                    100.0 * ph.length() / trace.size());
    }
    const double rs = model::predictPiecewise(
        m, model::toPhaseDemands(phases), y);
    std::printf("piecewise relative speed at y=%.1f GB/s: %.2f %%\n",
                y, rs);
    return 0;
}

int
cmdSweep(const ArgMap &args)
{
    const soc::SocConfig soc = socByName(require(args, "soc"));
    const soc::PuKind kind = puByName(require(args, "pu"));
    const int pu = soc.puIndex(kind);
    if (pu < 0)
        fatal("that SoC has no such PU");
    const std::size_t pi = static_cast<std::size_t>(pu);
    const soc::KernelProfile kernel =
        workloads::rodiniaKernel(require(args, "bench"), kind);

    const double max_external =
        args.count("max-external")
            ? requireDouble(args, "max-external")
            : 0.73 * soc.memory.peakBandwidth;
    const unsigned steps =
        args.count("steps") ? requireUnsigned(args, "steps", 1, 10000)
                            : 10;

    std::vector<GBps> ladder;
    for (unsigned j = 1; j <= steps; ++j)
        ladder.push_back(max_external * j / steps);

    const soc::SocSimulator sim(soc);
    const model::PccsModel pccs = model::buildModel(sim, pi);
    const gables::GablesModel gables(soc.memory.peakBandwidth);

    runner::SweepEngine &engine = runner::SweepEngine::global();
    const GBps demand = engine.profile(sim, pi, kernel).bandwidthDemand;
    std::vector<runner::EvalPoint> points;
    points.reserve(ladder.size());
    for (GBps y : ladder)
        points.push_back({pi, kernel, y});
    const std::vector<double> actual =
        engine.evaluateBatch(sim, points);

    runner::RunResult artifact;
    artifact.spec.experiment = "sweep_" + kernel.name;
    artifact.spec.title = kernel.name + " on the " + soc.name + " " +
                          soc.pus[pi].name + " under external pressure";
    artifact.spec.paperRef = "pccs sweep";
    artifact.spec.socName = soc.name;
    artifact.spec.puName = soc.pus[pi].name;
    artifact.spec.externalBw = ladder;

    runner::KernelRun kr;
    kr.name = kernel.name;
    kr.demand = demand;
    kr.series.push_back({"actual", actual});
    std::vector<double> prd, gab;
    for (GBps y : ladder) {
        prd.push_back(pccs.relativeSpeed(demand, y));
        gab.push_back(gables.relativeSpeed(demand, y));
    }
    kr.series.push_back({"pccs", prd});
    kr.series.push_back({"gables", gab});
    artifact.kernels.push_back(std::move(kr));

    std::vector<std::string> headers{"series"};
    for (GBps y : ladder)
        headers.push_back("y=" + fmtDouble(y, 0));
    Table t(std::move(headers));
    t.addRow("actual RS (%)", actual, 1);
    t.addRow("PCCS RS (%)", prd, 1);
    t.addRow("Gables RS (%)", gab, 1);
    std::printf("%s (standalone demand %.1f GB/s)\n%s\n",
                kernel.name.c_str(), demand, t.str().c_str());

    const char *env = std::getenv("PCCS_ARTIFACT_DIR");
    const std::string dir =
        args.count("out") ? args.at("out")
                          : (env && *env ? env : ".");
    const std::string path = artifact.writeArtifacts(dir);
    std::printf("artifact: %s (+ .csv)\n", path.c_str());
    return 0;
}

/** Split "a,b,c" into its non-empty comma-separated pieces. */
std::vector<std::string>
splitCsv(const std::string &text)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= text.size()) {
        std::size_t comma = text.find(',', start);
        if (comma == std::string::npos)
            comma = text.size();
        if (comma > start)
            out.push_back(text.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

serve::Server *g_server = nullptr;

extern "C" void
handleStopSignal(int)
{
    // requestStop is async-signal-safe (atomic store + pipe write).
    if (g_server != nullptr)
        g_server->requestStop();
}

int
cmdServe(const ArgMap &args)
{
    // Integer options first: a bad value fails before any model loads
    // or any socket or thread exists.
    serve::ServerOptions opts;
    if (args.count("host"))
        opts.host = args.at("host");
    if (args.count("port"))
        opts.port =
            static_cast<std::uint16_t>(requireUnsigned(args, "port", 0,
                                                       65535));
    if (args.count("shards"))
        opts.shards = requireUnsigned(args, "shards", 0, 64);

    serve::ModelRegistry registry;

    // --model NAME=FILE[,NAME=FILE...]: preload serialized models.
    if (args.count("model")) {
        for (const std::string &spec : splitCsv(args.at("model"))) {
            const std::size_t eq = spec.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= spec.size()) {
                fatal("--model wants NAME=FILE, got '%s'",
                      spec.c_str());
            }
            const std::string name = spec.substr(0, eq);
            const std::string path = spec.substr(eq + 1);
            const std::string err = registry.addFromFile(name, path);
            if (!err.empty())
                fatal("cannot load model '%s': %s", name.c_str(),
                      err.c_str());
            inform("loaded model '%s' from %s", name.c_str(),
                   path.c_str());
        }
    }

    // --calibrate SOC:PU[,SOC:PU...]: build models from the
    // simulator and register them as "<soc>.<pu>".
    if (args.count("calibrate")) {
        for (const std::string &spec :
             splitCsv(args.at("calibrate"))) {
            const std::size_t colon = spec.find(':');
            if (colon == std::string::npos) {
                fatal("--calibrate wants SOC:PU, got '%s'",
                      spec.c_str());
            }
            const std::string soc_name = spec.substr(0, colon);
            const std::string pu_name = spec.substr(colon + 1);
            const soc::SocConfig soc = socByName(soc_name);
            const int pu = soc.puIndex(puByName(pu_name));
            if (pu < 0)
                fatal("SoC '%s' has no %s", soc_name.c_str(),
                      pu_name.c_str());
            const soc::SocSimulator sim(soc);
            const model::PccsParams p =
                model::buildModel(sim, static_cast<std::size_t>(pu))
                    .params();
            const std::string name = soc_name + "." + pu_name;
            registry.addFromParams(
                name, p, "calibrated:" + soc_name + ":" + pu_name);
            inform("calibrated model '%s'", name.c_str());
        }
    }

    if (registry.size() == 0) {
        warn("starting with an empty model registry; use "
             "--model/--calibrate, or reload with a path later");
    }

    serve::Metrics metrics;
    serve::Dispatcher dispatcher(registry, metrics);
    serve::Server server(dispatcher, opts);
    std::string err;
    if (!server.start(&err))
        fatal("%s", err.c_str());

    g_server = &server;
    std::signal(SIGINT, handleStopSignal);
    std::signal(SIGTERM, handleStopSignal);

    // The port line is machine-read by scripts; keep its shape.
    std::printf("pccs serve: listening on %s:%u (%zu model(s))\n",
                opts.host.c_str(), server.port(), registry.size());
    std::fflush(stdout);

    server.serveForever();
    g_server = nullptr;
    inform("pccs serve: stopped (%llu connection(s) served)",
           static_cast<unsigned long long>(
               server.connectionsAccepted()));
    return 0;
}

int
cmdClient(const ArgMap &args)
{
    const std::string host =
        args.count("host") ? args.at("host") : "127.0.0.1";
    const std::uint16_t port =
        static_cast<std::uint16_t>(requireUnsigned(args, "port", 1,
                                                   65535));

    serve::Json req;
    if (args.count("send")) {
        const serve::JsonParse parsed =
            serve::parseJson(args.at("send"));
        if (!parsed.ok())
            fatal("--send is not valid JSON: %s",
                  parsed.error.c_str());
        req = *parsed.value;
    } else {
        req = serve::Json::object();
        req.set("op", serve::Json(require(args, "op")));
        req.set("id", serve::Json(1));
        if (args.count("model"))
            req.set("model", serve::Json(args.at("model")));
        if (args.count("demand"))
            req.set("demand",
                    serve::Json(requireDouble(args, "demand")));
        if (args.count("external"))
            req.set("external",
                    serve::Json(requireDouble(args, "external")));
        if (args.count("path"))
            req.set("path", serve::Json(args.at("path")));
    }

    serve::TcpClient client;
    std::string err;
    if (!client.connectTo(host, port, &err))
        fatal("%s", err.c_str());

    const serve::Json resp = client.request(req);
    std::printf("%s\n", resp.dump().c_str());
    const serve::Json *ok = resp.find("ok");
    return (ok != nullptr && ok->isBool() && ok->asBool()) ? 0 : 1;
}

int
cmdRegion(const ArgMap &args)
{
    const model::PccsParams p = paramsFromArgs(args);
    const model::PccsModel m(p);
    const double x = requireDouble(args, "demand");
    std::printf("%s\n", model::regionName(m.classify(x)));
    return 0;
}

int
cmdPolicies(const ArgMap &args)
{
    // `--format names` emits one canonical name per line for shell
    // loops (CI iterates the equivalence matrix with it).
    if (args.count("format")) {
        const std::string &f = args.at("format");
        if (f != "names" && f != "table")
            fatal("--format must be names or table");
        if (f == "names") {
            for (const auto &p : dram::schedulerPolicies())
                std::printf("%s\n", p.name.c_str());
            return 0;
        }
    }
    Table t({"policy", "aliases", "row-hit preserving", "tick events"});
    for (const auto &p : dram::schedulerPolicies()) {
        std::string aliases;
        for (const std::string &a : p.aliases) {
            if (!aliases.empty())
                aliases += ",";
            aliases += a;
        }
        t.addRow({p.name, aliases.empty() ? "-" : aliases,
                  p.preservesRowHits ? "yes" : "no",
                  p.needsTickEvents ? "yes" : "no"});
    }
    std::printf("%s", t.str().c_str());
    return 0;
}

int
cmdMultimc(const ArgMap &args)
{
    calib::McSweepSpec spec;
    if (args.count("mcs"))
        spec.numMcs = requireUnsigned(args, "mcs", 1, 64);
    if (args.count("channels")) {
        spec.perMcConfig.channels = requireUnsigned(args, "channels", 1, 64);
        if (!std::has_single_bit(spec.perMcConfig.channels))
            fatal("--channels must be a power of two, got %u",
                  spec.perMcConfig.channels);
    }
    spec.perMcConfig.requestBufferEntries =
        64 * spec.perMcConfig.channels;
    if (args.count("mapping")) {
        const std::string &m = args.at("mapping");
        if (m == "interleaved")
            spec.mapping = dram::McMapping::LineInterleaved;
        else if (m == "partitioned")
            spec.mapping = dram::McMapping::RangePartitioned;
        else
            fatal("--mapping must be interleaved or partitioned");
    }
    if (args.count("policy")) {
        // Resolve through the registry (case-insensitive, aliases);
        // schedulerFromName enumerates the valid names on error.
        spec.policy = dram::schedulerFromName(args.at("policy")).name;
    }
    if (args.count("kernels"))
        spec.numKernels = requireUnsigned(args, "kernels", 2, 64);
    if (args.count("external"))
        spec.numExternal = requireUnsigned(args, "external", 1, 64);

    std::printf("multi-MC calibration sweep: %u MC x %u ch, %s, %s, "
                "%s run mode\n\n",
                spec.numMcs, spec.perMcConfig.channels,
                spec.policy.c_str(),
                dram::mcMappingName(spec.mapping),
                dram::runModeName(spec.runMode));
    const calib::CalibrationMatrix m = calib::calibrateMultiMc(spec);

    std::vector<std::string> header{"standalone (GB/s)"};
    for (GBps y : m.externalBw) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "ext %.1f", y);
        header.push_back(buf);
    }
    Table t(header);
    for (std::size_t i = 0; i < m.numKernels(); ++i) {
        std::vector<std::string> row{fmtDouble(m.standaloneBw[i], 2)};
        for (double r : m.rela[i])
            row.push_back(fmtDouble(r, 1));
        t.addRow(row);
    }
    std::printf("%s\nrela[i][j]: victim relative speed (%%)\n",
                t.str().c_str());
    return 0;
}

int
cmdSchedule(const ArgMap &args)
{
    const soc::SocConfig soc = socByName(
        args.count("soc") ? args.at("soc") : "xavier");

    sched::SchedOptions opts;
    // Default margin absorbs the model's few-percent error against
    // the simulator, so the demo trace validates clean under strict.
    opts.safetyMargin = 0.1;
    if (args.count("policy")) {
        const auto p = sched::admissionPolicyFromName(args.at("policy"));
        if (!p)
            fatal("unknown policy '%s' (use strict, best-effort, or "
                  "fairness)",
                  args.at("policy").c_str());
        opts.policy = *p;
    }
    if (args.count("margin"))
        opts.safetyMargin = requireDouble(args, "margin");
    if (args.count("capacity"))
        opts.puCapacity = requireUnsigned(args, "capacity", 1, 1024);
    if (args.count("grid-steps"))
        opts.gridSteps = requireUnsigned(args, "grid-steps", 1, 4096);

    // The arrival trace: `submit BENCH SLO [cpu|gpu|dla|any]` and
    // `complete N` (N indexes the admission-ordered job list,
    // promotions included). '#' starts a comment.
    std::vector<std::string> lines;
    if (args.count("trace")) {
        std::ifstream in(args.at("trace"));
        if (!in)
            fatal("cannot open trace '%s'", args.at("trace").c_str());
        std::string line;
        while (std::getline(in, line))
            lines.push_back(line);
    } else {
        lines = {
            "submit streamcluster 1.3 gpu", "submit hotspot 2.0 cpu",
            "submit bfs 1.4 any",           "submit srad 1.2 any",
            "complete 0",                   "submit pathfinder 1.5 any",
            "complete 1",                   "complete 2",
        };
    }

    sched::QosController ctl(soc, nullptr, opts);
    std::vector<sched::JobHandle> jobs;

    Table t({"line", "event", "decision", "pu", "MHz", "slowdown",
             "slo"});
    const auto decisionRow = [&](std::size_t lineno,
                                 const std::string &event,
                                 const sched::Decision &d, double slo) {
        if (d.kind == sched::DecisionKind::Admitted) {
            t.addRow({std::to_string(lineno), event,
                      sched::decisionKindName(d.kind),
                      soc.pus[d.puIndex].name,
                      fmtDouble(d.frequencyMhz, 0),
                      fmtDouble(d.predictedSlowdown, 3),
                      fmtDouble(slo, 2)});
            jobs.push_back(d.handle);
        } else {
            t.addRow({std::to_string(lineno), event,
                      sched::decisionKindName(d.kind), "-", "-", "-",
                      fmtDouble(slo, 2)});
        }
    };

    std::size_t lineno = 0;
    for (const std::string &line : lines) {
        ++lineno;
        std::istringstream is(line);
        std::string verb;
        if (!(is >> verb) || verb[0] == '#')
            continue;
        if (verb == "submit") {
            std::string bench;
            double slo = 0.0;
            if (!(is >> bench >> slo))
                fatal("trace line %zu: want 'submit BENCH SLO [PU]'",
                      lineno);
            std::string pu = "any";
            is >> pu;
            sched::JobRequest req;
            req.name = bench;
            req.sloSlowdown = slo;
            for (const soc::PuParams &p : soc.pus) {
                if (p.kind == soc::PuKind::Dla)
                    req.options.emplace_back(std::nullopt);
                else
                    req.options.emplace_back(
                        workloads::rodiniaKernel(bench, p.kind));
            }
            if (pu != "any") {
                const int pi = soc.puIndex(puByName(pu));
                if (pi < 0)
                    fatal("trace line %zu: that SoC has no %s", lineno,
                          pu.c_str());
                req.puIndex = pi;
            }
            decisionRow(lineno, "submit " + bench, ctl.submit(req),
                        slo);
        } else if (verb == "complete") {
            std::size_t idx = 0;
            if (!(is >> idx))
                fatal("trace line %zu: want 'complete INDEX'", lineno);
            if (idx >= jobs.size())
                fatal("trace line %zu: no admitted job %zu", lineno,
                      idx);
            const sched::Completion c = ctl.complete(jobs[idx]);
            t.addRow({std::to_string(lineno),
                      "complete #" + std::to_string(idx),
                      c.ok ? "completed" : "stale", "-", "-", "-",
                      "-"});
            for (const sched::Decision &d : c.promoted)
                decisionRow(lineno, "promoted",
                            d, ctl.job(d.handle)->sloSlowdown);
        } else {
            fatal("trace line %zu: unknown verb '%s' (submit or "
                  "complete)",
                  lineno, verb.c_str());
        }
    }
    std::printf("%s policy on %s, margin %.2f\n\n%s\n",
                sched::admissionPolicyName(opts.policy),
                soc.name.c_str(), opts.safetyMargin,
                t.str().c_str());

    const sched::SchedStats &st = ctl.stats();
    std::printf("decisions %llu: %llu admitted, %llu queued, "
                "%llu rejected, %llu promoted "
                "(%llu model points)\n",
                static_cast<unsigned long long>(st.decisions),
                static_cast<unsigned long long>(st.admitted),
                static_cast<unsigned long long>(st.queued),
                static_cast<unsigned long long>(st.rejected),
                static_cast<unsigned long long>(st.promoted),
                static_cast<unsigned long long>(st.modelPoints));

    // Replay the accepted schedule through the SoC simulator: every
    // interval's true slowdowns vs the SLOs the controller promised.
    const sched::OracleReport rep =
        sched::validateSchedule(soc, ctl.events());
    std::printf("oracle: %zu intervals, %zu checks, %zu of %zu jobs "
                "violated, attainment %.1f%%, worst excess %+.1f%%\n",
                rep.intervals, rep.checks, rep.violations,
                rep.jobsChecked, 100.0 * rep.attainment(),
                100.0 * rep.worstExcess);
    // Under strict admission a violation means the controller broke
    // its promise — fail the run so scripts and CI notice.
    if (opts.policy == sched::AdmissionPolicy::StrictSlo &&
        rep.violations > 0)
        return 1;
    return 0;
}

/**
 * One `pccs` subcommand: dispatch entry, the option keys it reads
 * (without the leading "--"; --jobs is accepted everywhere), and its
 * usage synopsis.
 */
struct Command
{
    const char *name;
    int (*run)(const ArgMap &args);
    std::vector<std::string> keys;
    const char *synopsis;
};

/**
 * The single source of truth for subcommands: main() dispatches by
 * walking this table and usage() renders it, so the help text cannot
 * drift from what actually dispatches.
 */
const Command kCommands[] = {
    {"calibrate", cmdCalibrate,
     {"soc", "pu", "out"},
     "  pccs calibrate --soc S --pu P [--out FILE]\n"},
    {"predict", cmdPredict,
     {"model", "soc", "pu", "demand", "external"},
     "  pccs predict   (--model FILE | --soc S --pu P) --demand X "
     "--external Y\n"},
    {"scale", cmdScale,
     {"model", "ratio", "out"},
     "  pccs scale     --model FILE --ratio R [--out FILE]\n"},
    {"explore", cmdExplore,
     {"soc", "pu", "bench", "external", "allowed"},
     "  pccs explore   --soc S --pu P --bench NAME --external Y "
     "--allowed PCT\n"},
    {"region", cmdRegion,
     {"model", "soc", "pu", "demand"},
     "  pccs region    (--model FILE | --soc S --pu P) --demand X\n"},
    {"phases", cmdPhases,
     {"trace", "model", "soc", "pu", "external"},
     "  pccs phases    --trace FILE (--model FILE | --soc S --pu P) "
     "--external Y\n"},
    {"sweep", cmdSweep,
     {"soc", "pu", "bench", "max-external", "steps", "out"},
     "  pccs sweep     --soc S --pu P --bench NAME "
     "[--max-external Y]\n"
     "                 [--steps N] [--out DIR]\n"},
    {"schedule", cmdSchedule,
     {"soc", "policy", "trace", "margin", "capacity", "grid-steps"},
     "  pccs schedule  [--soc S] "
     "[--policy strict|best-effort|fairness]\n"
     "                 [--trace FILE] [--margin F] [--capacity N] "
     "[--grid-steps N]\n"},
    {"serve", cmdServe,
     {"host", "port", "shards", "model", "calibrate"},
     "  pccs serve     [--host H] [--port N] [--shards N] "
     "[--model NAME=FILE,...]\n"
     "                 [--calibrate SOC:PU,...]\n"},
    {"client", cmdClient,
     {"port", "host", "send", "op", "model", "demand", "external",
      "path"},
     "  pccs client    --port N [--host H] (--send JSON | --op OP "
     "[--model M]\n"
     "                 [--demand X] [--external Y] [--path FILE])\n"},
    {"multimc", cmdMultimc,
     {"mcs", "channels", "mapping", "policy", "kernels", "external"},
     "  pccs multimc   [--mcs N] [--channels N] "
     "[--mapping interleaved|partitioned]\n"
     "                 [--policy NAME] [--kernels N] "
     "[--external N]\n"},
    {"policies", cmdPolicies,
     {"format"},
     "  pccs policies  [--format names|table]\n"},
};

/** Any key `c` does not read is a fatal user error naming the valid ones. */
void
checkKeys(const Command &c, const ArgMap &args)
{
    for (const auto &[key, value] : args) {
        (void)value;
        if (key == "jobs" ||
            std::find(c.keys.begin(), c.keys.end(), key) != c.keys.end())
            continue;
        std::string valid;
        for (const std::string &k : c.keys)
            valid += "--" + k + ", ";
        fatal("unknown option --%s for '%s' (valid: %s--jobs)",
              key.c_str(), c.name, valid.c_str());
    }
}

void
usage(std::FILE *to)
{
    std::fprintf(to,
        "pccs — processor-centric contention-aware slowdown modeling\n"
        "\n"
        "usage:\n");
    for (const Command &c : kCommands)
        std::fputs(c.synopsis, to);
    std::fprintf(to,
        "  pccs --version\n"
        "\n"
        "  S: xavier | snapdragon      P: cpu | gpu | dla\n"
        "  NAME: a Rodinia benchmark (e.g. streamcluster)\n"
        "  OP: predict | corun | place | explore | reload | stats | "
        "health |\n"
        "      schedule | complete | sched_stats | shutdown\n"
        "\n"
        "global options:\n"
        "  --jobs N           cap the sweep engine's worker threads "
        "(PCCS_JOBS)\n"
        "  --dram-reference   per-cycle reference DRAM loop "
        "(PCCS_DRAM_REFERENCE=1),\n"
        "                     on one memory controller or many\n");
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the value-less global run-mode flag before parseArgs
    // (which pairs every --option with a value).
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--dram-reference") == 0)
            dram::setDefaultRunMode(dram::RunMode::Reference);
        else
            argv[kept++] = argv[i];
    }
    argc = kept;
    if (argc < 2) {
        usage(stderr);
        return 1;
    }
    const std::string cmd = argv[1];
    if (cmd == "--version" || cmd == "version") {
        std::printf("pccs %s\n", PCCS_CLI_VERSION);
        return 0;
    }
    if (cmd == "--help" || cmd == "help") {
        usage(stdout);
        return 0;
    }
    const ArgMap args = parseArgs(argc, argv, 2);
    for (const Command &c : kCommands) {
        if (cmd == c.name) {
            checkKeys(c, args);
            if (args.count("jobs")) {
                // Must land before the first SweepEngine::global() call.
                setenv("PCCS_JOBS", args.at("jobs").c_str(), 1);
            }
            return c.run(args);
        }
    }
    usage(stderr);
    fatal("unknown command '%s'", cmd.c_str());
}

/**
 * @file
 * The benchmark driver: one process that runs one workload for a seed
 * and prints its metrics.
 *
 *   pccs_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * With `--trace 0` the result carries the end-to-end metrics, with
 * `--trace 1` the per-layer metrics (from traced passes) and the
 * tracing overhead. The last line of stdout is one JSON object:
 * {"correct", "attempted", "failed", "metrics"}. Earlier lines give a
 * readable summary and the run's provenance. Files written under
 * `.bench_out/` in the working directory: the full result with
 * provenance, the spans of a traced run, and the exact-repeat ledger
 * (values that must not drift between runs of one seed on the same
 * sources).
 */

#include <sched.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "workloads.hh"

extern char **environ;

namespace perfbench {

namespace {

/** Threads of this process now (/proc/self/status), 0 if unknown. */
unsigned
processThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("Threads:", 0) == 0)
            return static_cast<unsigned>(
                std::strtoul(line.c_str() + 8, nullptr, 10));
    }
    return 0;
}

} // namespace

void
Outcome::check(bool ok, const std::string &what)
{
    ++attempted;
    if (!ok)
        fail(what);
}

void
Outcome::fail(const std::string &what, std::uint64_t count)
{
    failed += count;
    if (failures.size() < 10)
        failures.push_back(what);
}

unsigned
passCount(const RunConfig &cfg, double nominal_pass_seconds)
{
    const double n = std::round(cfg.seconds / nominal_pass_seconds);
    return std::max(4u, static_cast<unsigned>(n));
}

void
runMeasuredPasses(const RunConfig &cfg, unsigned passes, Outcome &out,
                  const std::function<double(unsigned)> &body)
{
    for (unsigned p = 0; p < passes; ++p) {
        const bool traced = cfg.trace && p % 2 == 1;
        tracer().setEnabled(traced);
        double seconds = 0.0;
        const std::size_t first_op = out.opLatencyUs.size();
        {
            Span pass_span("pass");
            seconds = body(p);
        }
        tracer().setEnabled(false);
        out.peakThreads = std::max(out.peakThreads, processThreads());
        out.passSeconds.push_back(seconds);
        out.passOps.emplace_back(first_op, out.opLatencyUs.size());
        out.passTraced.push_back(traced);
    }
}

void
runPasses(const RunConfig &cfg, unsigned passes, Outcome &out,
          const std::function<void(unsigned)> &body)
{
    runMeasuredPasses(cfg, passes, out, [&](unsigned p) {
        const Clock::time_point start = Clock::now();
        body(p);
        return secondsBetween(start, Clock::now());
    });
}

void
runSetups(unsigned count, Outcome &out,
          const std::function<void(unsigned)> &setup)
{
    for (unsigned i = 0; i < count; ++i) {
        const Clock::time_point start = Clock::now();
        setup(i);
        out.setupSeconds.push_back(secondsBetween(start, Clock::now()));
        out.peakThreads = std::max(out.peakThreads, processThreads());
    }
}

namespace {

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** The end-to-end metrics (BENCHMARK.json "end_to_end"). */
const std::vector<MetricDef> kEndToEnd{
    {"wall_s", "s"},          {"setup_s", "s"},
    {"peak_rss_mb", "MB"},    {"pccs_err_pp", "pp"},
    {"gables_err_pp", "pp"},  {"lat_p50_us", "us"},
    {"lat_p99_us", "us"},
};

/** The per-layer metrics (BENCHMARK.json "per_layer"); a workload
 *  that does not exercise a layer reports 0 for it. */
const std::vector<MetricDef> kPerLayer{
    {"dram.points", "count"},
    {"dram.sim_cycles", "cycles"},
    {"dram.run_s", "s"},
    {"dram.cycles_per_s", "cycles/s"},
    {"dram.light.cycles_per_s", "cycles/s"},
    {"dram.saturated.cycles_per_s", "cycles/s"},
    {"dram.FCFS.cycles_per_s", "cycles/s"},
    {"dram.FR-FCFS.cycles_per_s", "cycles/s"},
    {"dram.ATLAS.cycles_per_s", "cycles/s"},
    {"dram.TCM.cycles_per_s", "cycles/s"},
    {"dram.SMS.cycles_per_s", "cycles/s"},
    {"dram.BLISS.cycles_per_s", "cycles/s"},
    {"dram.PARBS.cycles_per_s", "cycles/s"},
    {"dram.MEDUSA.cycles_per_s", "cycles/s"},
    {"dram.row_hit_rate", "fraction"},
    {"dram.avg_latency_cycles", "cycles"},
    {"multi_mc.points", "count"},
    {"multi_mc.run_s", "s"},
    {"multi_mc.cycles_per_s", "cycles/s"},
    {"multi_mc.line-interleaved.cycles_per_s", "cycles/s"},
    {"multi_mc.range-partitioned.cycles_per_s", "cycles/s"},
    {"multi_mc.write_frac", "fraction"},
    {"multi_mc.row_hit_rate", "fraction"},
    {"calib.multimc_s", "s"},
    {"calib.calibrate_s", "s"},
    {"soc.eval_points", "count"},
    {"soc.eval_s", "s"},
    {"soc.eval_points_per_s", "1/s"},
    {"runner.jobs", "count"},
    {"runner.cache_hit_rate", "fraction"},
    {"runner.cache_entries", "count"},
    {"pccs.fit_s", "s"},
    {"pccs.build_s", "s"},
    {"pccs.predict_points_per_s", "1/s"},
    {"pccs.explore_s", "s"},
    {"pccs.place_s", "s"},
    {"gables.predict_s", "s"},
    {"serve.requests", "count"},
    {"serve.failed", "count"},
    {"serve.predict_lat_p50_us", "us"},
    {"serve.predict_lat_p99_us", "us"},
    {"serve.batch_mean", "count"},
    {"sched.admitted", "count"},
    {"sched.rejected", "count"},
    {"sched.schedule_lat_p50_us", "us"},
    {"sched.complete_lat_p50_us", "us"},
    {"trace.overhead_pct", "%"},
};

/** Seed of a run without --seed (README names the held-out seed). */
constexpr std::uint64_t kDefaultSeed = 1;

struct Workload
{
    const char *name;
    Outcome (*run)(const RunConfig &);
    /**
     * Run every thread on one CPU. serve_mixed: the client and the
     * shard it talks to take turns (closed loop, one connection).
     * soc_design: the sweep engine's pool hands each small batch to
     * its workers. Across CPUs, wake-ups on a virtualized host made
     * the same work vary run to run by a quarter (soc_design wall_s)
     * up to threefold (round trips); the pool keeps its default size.
     */
    bool oneCpu;
    /**
     * Threads the run may have beyond nproc under the shipped
     * defaults. serve_mixed: 1. The process-wide pool takes every
     * hardware thread (its workers plus the caller), the server's QoS
     * controller builds its models on that pool whatever engine it is
     * given, and the server needs a shard thread besides the client.
     */
    unsigned threadsOverBudget;
};

const Workload kWorkloads[] = {
    {"dram_policies", runDramPolicies, false, 0},
    {"dram_multimc", runDramMultiMc, false, 0},
    {"soc_design", runSocDesign, true, 0},
    {"serve_mixed", runServeMixed, true, 1},
};

/**
 * Restrict this thread, and so every thread it starts later (the
 * sweep engine's pool, server shards), to the highest-numbered CPU it
 * may run on. @return that CPU, or -1 when the affinity is unchanged.
 */
int
pinToOneCpu()
{
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0)
        return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &allowed))
            cpu = c;
    if (cpu < 0)
        return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Linear-interpolated percentile, p in [0, 100]. */
double
percentile(std::vector<float> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (rank - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

/**
 * The median over passes of each pass's p-th latency percentile. A
 * host hiccup, or an evaluation-cache rehash, moves the percentile of
 * the pass it falls in, not the run's.
 */
double
latencyPercentile(const Outcome &out, double p)
{
    std::vector<double> per_pass;
    for (const auto &[begin, end] : out.passOps) {
        if (begin != end)
            per_pass.push_back(percentile(
                std::vector<float>(out.opLatencyUs.begin() + begin,
                                   out.opLatencyUs.begin() + end),
                p));
    }
    return median(per_pass);
}

/** Peak resident set of this process (VmHWM), MB. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string
cpuModel()
{
    std::ifstream info("/proc/cpuinfo");
    std::string line;
    while (std::getline(info, line)) {
        if (line.rfind("model name", 0) == 0) {
            const std::size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    }
    return "unknown";
}

std::string
compiler()
{
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("g++ ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

/**
 * Compare this run's exact-repeat values with the ledger of earlier
 * runs of the same (workload, seed, seconds, sources); record them
 * when first seen. Each drifting value is one failed operation.
 */
void
checkRepeat(const std::string &path,
            const std::map<std::string, double> &values, Outcome &out)
{
    std::map<std::string, std::string> seen;
    {
        std::ifstream in(path);
        std::string name, value;
        while (in >> name >> value)
            seen[name] = value;
    }
    bool complete = !seen.empty();
    for (const auto &[name, v] : values) {
        const auto it = seen.find(name);
        if (it == seen.end()) {
            complete = false;
            continue;
        }
        out.check(it->second == jsonNumber(v),
                  "exact-repeat: " + name + " was " + it->second +
                      ", now " + jsonNumber(v));
    }
    if (complete)
        return;
    std::ofstream ledger(path);
    for (const auto &[name, v] : values)
        ledger << name << ' ' << jsonNumber(v) << '\n';
}

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "pccs_perfbench: %s\nusage: pccs_perfbench --workload "
                 "NAME --seed N --seconds S --trace 0|1\nworkloads:",
                 why);
    for (const Workload &w : kWorkloads)
        std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    std::exit(2);
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;

    std::string workload, git_sha = "unknown", digest = "unknown";
    RunConfig cfg;
    cfg.seed = kDefaultSeed;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + arg).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            workload = value;
        } else if (arg == "--seed") {
            cfg.seed = std::strtoull(value, &end, 10);
        } else if (arg == "--seconds") {
            const long s = std::strtol(value, &end, 10);
            if (s < 1 || s > 600)
                usage("--seconds must be 1..600");
            cfg.seconds = static_cast<unsigned>(s);
        } else if (arg == "--trace") {
            cfg.trace = std::strcmp(value, "1") == 0;
            if (!cfg.trace && std::strcmp(value, "0") != 0)
                usage("--trace must be 0 or 1");
        } else if (arg == "--git-sha") {
            git_sha = value;
        } else if (arg == "--source-digest") {
            digest = value;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
        if (end != nullptr && *end != '\0')
            usage(("bad number for " + arg).c_str());
    }
    const Workload *w = nullptr;
    for (const Workload &candidate : kWorkloads)
        if (workload == candidate.name)
            w = &candidate;
    if (w == nullptr)
        usage(("unknown workload '" + workload + "'").c_str());

    // The benchmark measures the shipped defaults; PCCS_JOBS,
    // PCCS_DRAM_FASTPATH, PCCS_MC_SHARDS and friends would change them.
    for (char **e = environ; *e != nullptr; ++e) {
        if (std::strncmp(*e, "PCCS_", 5) == 0) {
            std::fprintf(stderr,
                         "pccs_perfbench: refusing to run with %s set\n",
                         *e);
            return 2;
        }
    }

    cfg.nproc = std::max(1u, std::thread::hardware_concurrency());
    ::mkdir(".bench_out", 0755);
    // Before anything starts a thread: the sweep engine's pool is
    // created on first use and inherits this affinity.
    const int cpu = w->oneCpu ? pinToOneCpu() : -1;

    Outcome out = w->run(cfg);

    // Thread budget: the sweep engine's workers, the server shards and
    // the calling (client) thread, as counted in /proc, must fit the
    // host, up to the workload's documented excess.
    const std::string shards = out.provenance.count("server_shards")
                                   ? out.provenance["server_shards"]
                                   : "0";
    out.check(out.peakThreads > 0 &&
                  out.peakThreads <= cfg.nproc + w->threadsOverBudget,
              "thread budget: " + std::to_string(out.peakThreads) +
                  " threads (sweep engine jobs " +
                  std::to_string(out.engineJobs) + ", server shards " +
                  shards + ", one client) on " + std::to_string(cfg.nproc) +
                  " hardware threads");

    const std::string tag =
        std::string(w->name) + "-seed" + std::to_string(cfg.seed);
    std::map<std::string, double> repeat = out.guard;
    repeat["pccs_err_pp"] = out.pccsErrPp;
    repeat["gables_err_pp"] = out.gablesErrPp;
    // Only runs of identical sources must agree: the ledger is keyed
    // by the source digest (the git sha when there is none).
    const std::string source = digest != "unknown" ? digest : git_sha;
    if (source != "unknown")
        checkRepeat(".bench_out/repeat-" + tag + "-s" +
                        std::to_string(cfg.seconds) + "-" + source + ".txt",
                    repeat, out);
    else
        std::fprintf(stderr, "pccs_perfbench: sources unidentified, "
                             "exact-repeat check skipped\n");

    std::map<std::string, double> metrics;
    if (!cfg.trace) {
        metrics["wall_s"] = median(out.passSeconds);
        metrics["setup_s"] = median(out.setupSeconds);
        metrics["peak_rss_mb"] = peakRssMb();
        metrics["pccs_err_pp"] = out.pccsErrPp;
        metrics["gables_err_pp"] = out.gablesErrPp;
        metrics["lat_p50_us"] = latencyPercentile(out, 50.0);
        metrics["lat_p99_us"] = latencyPercentile(out, 99.0);
    } else {
        std::vector<double> traced, plain;
        for (std::size_t p = 0; p < out.passSeconds.size(); ++p)
            (out.passTraced[p] ? traced : plain)
                .push_back(out.passSeconds[p]);
        const double base = median(plain);
        metrics["trace.overhead_pct"] =
            base > 0.0 ? 100.0 * (median(traced) - base) / base : 0.0;
        for (const auto &[name, value] : out.layer)
            metrics[name] = value;
        if (!tracer().write(".bench_out/spans-" + tag + ".json"))
            std::fprintf(stderr, "pccs_perfbench: cannot write spans\n");
    }
    const std::vector<MetricDef> &defs = cfg.trace ? kPerLayer : kEndToEnd;

    std::ostringstream prov;
    prov << "{\"workload\":" << jsonString(w->name)
         << ",\"seed\":" << cfg.seed << ",\"seconds\":" << cfg.seconds
         << ",\"trace\":" << (cfg.trace ? 1 : 0)
         << ",\"nproc\":" << cfg.nproc
         << ",\"cpu\":" << jsonString(cpuModel())
         << ",\"compiler\":" << jsonString(compiler())
         << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
         << ",\"git_sha\":" << jsonString(git_sha)
         << ",\"source_digest\":" << jsonString(digest)
         << ",\"sweep_engine_jobs\":" << out.engineJobs
         << ",\"threads\":" << out.peakThreads
         << ",\"threads_over_budget\":"
         << (out.peakThreads > cfg.nproc ? out.peakThreads - cfg.nproc : 0)
         << ",\"pinned_cpu\":" << cpu;
    for (const auto &[key, value] : out.provenance)
        prov << "," << jsonString(key) << ":" << jsonString(value);
    prov << ",\"passes\":" << out.passSeconds.size()
         << ",\"setup_seconds\":[";
    for (std::size_t i = 0; i < out.setupSeconds.size(); ++i)
        prov << (i ? "," : "") << jsonNumber(out.setupSeconds[i]);
    prov << "]"
         << ",\"operations\":" << out.opLatencyUs.size() << "}";

    std::ostringstream passes;
    for (std::size_t i = 0; i < out.passSeconds.size(); ++i)
        passes << (i ? "," : "") << jsonNumber(out.passSeconds[i]);

    std::ostringstream result;
    result << "{\"correct\":" << (out.failed == 0 ? "true" : "false")
           << ",\"attempted\":" << std::max<std::uint64_t>(1, out.attempted)
           << ",\"failed\":" << out.failed << ",\"metrics\":{";
    bool first = true;
    for (const MetricDef &d : defs) {
        const auto it = metrics.find(d.name);
        const double v = it == metrics.end() ? 0.0 : it->second;
        result << (first ? "" : ",") << "\"" << d.name
               << "\":{\"value\":" << jsonNumber(v) << ",\"unit\":\""
               << d.unit << "\"}";
        first = false;
    }
    result << "}}";

    std::printf("workload %s seed %llu: %zu passes, %zu operations\n",
                w->name, static_cast<unsigned long long>(cfg.seed),
                out.passSeconds.size(), out.opLatencyUs.size());
    for (const MetricDef &d : defs)
        std::printf("  %-42s %14.6g %s\n", d.name,
                    metrics.count(d.name) ? metrics[d.name] : 0.0,
                    d.unit);
    std::printf("  %-42s %14.6g fraction (%llu of %llu)\n", "error_rate",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 0.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    for (const std::string &f : out.failures)
        std::printf("  FAILED: %s\n", f.c_str());
    std::printf("provenance %s\n", prov.str().c_str());

    {
        std::ofstream file(".bench_out/result-" + tag + "-trace" +
                           (cfg.trace ? "1" : "0") + ".json");
        file << "{\"provenance\":" << prov.str() << ",\"pass_seconds\":["
             << passes.str() << "]"
             << ",\"result\":" << result.str() << "}\n";
    }
    std::printf("%s\n", result.str().c_str());
    std::fflush(stdout);
    return 0;
}

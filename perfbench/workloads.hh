/**
 * @file
 * The benchmark's workloads and what each run of one reports.
 *
 * Every workload follows one shape: set up several times (each set-up
 * timed; the last one is kept), then run a fixed number of passes of
 * fixed-size work. The pass count depends only on `--seconds`, never on
 * how fast the host is, so a seed always yields the same inputs, the
 * same simulated statistics and the same cache contents. Outputs are
 * checked as the run goes; each check that does not hold is one failed
 * operation.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "trace.hh"

namespace perfbench {

/** What the command line asked for. */
struct RunConfig
{
    std::uint64_t seed = 1;
    unsigned seconds = 10;
    bool trace = false;
    /** Host threads (the thread-budget limit). */
    unsigned nproc = 1;
};

/** Everything one run measured. */
struct Outcome
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The first few failure diagnostics. */
    std::vector<std::string> failures;

    /** Duration of each set-up, seconds. */
    std::vector<double> setupSeconds;
    /** Duration of each timed pass, seconds, and whether it was traced. */
    std::vector<double> passSeconds;
    std::vector<bool> passTraced;
    /** Host latency of each operation, microseconds (float: a serve
     *  run holds a million of them), and each pass's [begin, end)
     *  range in it. */
    std::vector<float> opLatencyUs;
    std::vector<std::pair<std::size_t, std::size_t>> passOps;

    /** Mean |model - simulated| relative speed, percentage points. */
    double pccsErrPp = 0.0;
    double gablesErrPp = 0.0;

    /** Per-layer metrics this workload produces (from traced passes). */
    std::map<std::string, double> layer;
    /** Values that must repeat exactly for a given seed. */
    std::map<std::string, double> guard;
    /** Workload-specific provenance (run mode, shard count). */
    std::map<std::string, std::string> provenance;
    /** Jobs of the sweep engine the workload ran on; 0 = none used. */
    unsigned engineJobs = 0;
    /** Most threads the process had after any set-up or pass. */
    unsigned peakThreads = 0;

    /** Count one operation and check its outcome. */
    void check(bool ok, const std::string &what);
    /** Record `count` failed operations. */
    void fail(const std::string &what, std::uint64_t count = 1);
};

/**
 * Run `passes` timed passes of `body(pass)`. With tracing requested,
 * odd passes are traced and even ones are not, so the per-layer sums
 * come from half the passes and the traced/untraced medians give the
 * tracing overhead.
 */
void runPasses(const RunConfig &cfg, unsigned passes, Outcome &out,
               const std::function<void(unsigned)> &body);

/**
 * Like runPasses, but `body` returns the seconds to record for its
 * pass (for work whose timed part is interleaved with untimed checks).
 */
void runMeasuredPasses(const RunConfig &cfg, unsigned passes, Outcome &out,
                       const std::function<double(unsigned)> &body);

/** Run `setup(i)` `count` times, timing each. */
void runSetups(unsigned count, Outcome &out,
               const std::function<void(unsigned)> &setup);

/** Passes per run: `--seconds` over the nominal pass length, at least 4. */
unsigned passCount(const RunConfig &cfg, double nominal_pass_seconds);

/** Bitwise equality (the output checks' notion of "the same answer"). */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** Set-ups per run; the set-up time reported is their median. */
inline constexpr unsigned kSetups = 15;

Outcome runDramPolicies(const RunConfig &cfg);
Outcome runDramMultiMc(const RunConfig &cfg);
Outcome runSocDesign(const RunConfig &cfg);
Outcome runServeMixed(const RunConfig &cfg);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

/**
 * @file
 * The two DRAM workloads.
 *
 * dram_policies: every registered MC policy runs the Figure 5 grid
 * (high-group demand x low-group pressure, plus a solo run per row) on
 * the Table 1 DDR4 system with read-only traffic, and the Section 3.2
 * construction is fitted to each policy's grid. Solo and low-pressure
 * points exercise the event-skipping core; the saturated corner
 * exercises the fast issue engine.
 *
 * dram_multimc: victim/aggressor ladders on 2 and 4 controllers under
 * both address mappings, with the aggressors writing, then one
 * calibrateMultiMc sweep per 2-controller configuration. Routing, write drain and
 * per-controller delivery are exercised here and nowhere else.
 *
 * Each pass draws fresh traffic seeds from the run seed, and the
 * Section 3.2 fits run once, after the passes, on each grid averaged
 * over them. On a single pass's grid, measurement noise in the
 * least-slowed row can read as a negative MRMC or put the intensive
 * boundary below the normal one, and the construction aborts on both.
 * After the passes a seeded sample of the first pass's points is run
 * again under the executable specifications (the reference DRAM loop,
 * the lockstep multi-MC loop) and must complete the same lines and
 * bytes.
 */

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "calib/calibrator.hh"
#include "common/rng.hh"
#include "dram/multi_mc.hh"
#include "dram/system.hh"
#include "gables/gables.hh"
#include "pccs/builder.hh"
#include "runner/sweep_engine.hh"
#include "workloads.hh"

namespace perfbench {

using namespace pccs;

namespace {

/** What one simulated point produced (compared bit for bit). */
struct PointResult
{
    std::vector<std::uint64_t> completed; ///< lines, per generator
    std::vector<std::uint64_t> bytes;     ///< bytes, per controller
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t latency = 0;   ///< summed request latency, cycles
    std::uint64_t requests = 0;  ///< completed requests
    double victimBw = 0.0;       ///< multi-MC: victim GB/s
    double runSeconds = 0.0;     ///< host time inside run()
};

void
addStats(PointResult &r, const dram::ControllerStats &s)
{
    r.bytes.push_back(s.bytesTransferred);
    r.reads += s.reads;
    r.writes += s.writes;
    r.rowHits += s.rowHits;
    r.rowMisses += s.rowMisses;
    r.latency += s.totalLatency;
    r.requests += s.completed;
}

/** Mean |prediction - measurement| over a rela grid, in pp. */
double
gridError(const model::SlowdownPredictor &m,
          const calib::CalibrationMatrix &grid)
{
    double err = 0.0;
    for (std::size_t i = 0; i < grid.numKernels(); ++i)
        for (std::size_t j = 0; j < grid.numExternal(); ++j)
            err += std::abs(m.relativeSpeed(grid.standaloneBw[i],
                                            grid.externalBw[j]) -
                            grid.rela[i][j]);
    return err / static_cast<double>(grid.numKernels() *
                                     grid.numExternal());
}

/** Add `m` into the running sum `sum` (empty on the first call). */
void
accumulate(calib::CalibrationMatrix &sum, const calib::CalibrationMatrix &m)
{
    if (sum.rela.empty()) {
        sum = m;
        return;
    }
    for (std::size_t i = 0; i < m.numKernels(); ++i) {
        sum.standaloneBw[i] += m.standaloneBw[i];
        for (std::size_t j = 0; j < m.numExternal(); ++j)
            sum.rela[i][j] += m.rela[i][j];
    }
}

/** The mean of `n` accumulated matrices. */
calib::CalibrationMatrix
mean(calib::CalibrationMatrix sum, unsigned n)
{
    for (std::size_t i = 0; i < sum.numKernels(); ++i) {
        sum.standaloneBw[i] /= n;
        for (double &v : sum.rela[i])
            v /= n;
    }
    return sum;
}

/** Fit the Section 3.2 model to a grid; returns PCCS and Gables errors. */
std::pair<double, double>
fitAndScore(const calib::CalibrationMatrix &grid, GBps peak)
{
    model::PccsParams params;
    timed("model::buildModelParams",
          [&] { params = model::buildModelParams(grid, peak); });
    const model::PccsModel pccs(params);
    const gables::GablesModel gables(peak);
    return {gridError(pccs, grid), gridError(gables, grid)};
}

// --- dram_policies ----------------------------------------------------

/** Cores per group (Figure 5: two groups of eight). */
constexpr unsigned kGroupCores = 8;
/** The quick Figure 5 grid (bench/fig05 --quick): windows, then the
 *  high-group demand and low-group pressure axes, GB/s. */
constexpr Cycles kPolicyWarmup = 6000;
constexpr Cycles kPolicyWindow = 20000;
const std::vector<GBps> kHighDemands{18.0, 54.0, 90.0};
const std::vector<GBps> kLowDemands{20.0, 40.0, 60.0};

struct PolicyPoint
{
    GBps high = 0.0;
    GBps low = 0.0; ///< 0 = solo run of the high group
};

PointResult
runPolicyPoint(const std::string &policy, const PolicyPoint &pt,
               std::uint64_t seed_base, dram::DramRunMode mode)
{
    dram::DramSystem sys(dram::table1Config(), policy, {}, mode);
    const unsigned first_high = pt.low > 0.0 ? kGroupCores : 0;
    if (pt.low > 0.0) {
        for (unsigned c = 0; c < kGroupCores; ++c) {
            dram::TrafficParams p;
            p.source = c;
            p.demand = pt.low / kGroupCores;
            p.seed = seed_base + c;
            sys.addGenerator(p);
        }
    }
    for (unsigned c = 0; c < kGroupCores; ++c) {
        dram::TrafficParams p;
        p.source = kGroupCores + c;
        p.demand = pt.high / kGroupCores;
        p.seed = seed_base + 1000 + c;
        sys.addGenerator(p);
    }
    PointResult r;
    r.runSeconds = timed("DramSystem::run", [&] { sys.run(kPolicyWarmup); });
    sys.resetMeasurement();
    r.runSeconds += timed("DramSystem::run", [&] { sys.run(kPolicyWindow); });

    for (std::size_t g = first_high; g < sys.numGenerators(); ++g)
        r.completed.push_back(sys.generator(g).completedLines());
    addStats(r, sys.controller().stats());
    return r;
}

/** Completed high-group lines of a point. */
double
highLines(const PointResult &r)
{
    double lines = 0.0;
    for (std::uint64_t c : r.completed)
        lines += static_cast<double>(c);
    return lines;
}

/** Traffic seed base of pass `pass` of a run. */
std::uint64_t
passSeed(std::uint64_t run_seed, unsigned pass)
{
    Rng rng(run_seed * 0x9E3779B97F4A7C15ull + pass);
    return rng.next() >> 16;
}

/** Sums over every point of a run (simulated statistics). */
struct SimTotals
{
    PointResult sum;
    double pccsErr = 0.0;
    double gablesErr = 0.0;
    unsigned fits = 0;

    void add(const PointResult &r)
    {
        sum.reads += r.reads;
        sum.writes += r.writes;
        sum.rowHits += r.rowHits;
        sum.rowMisses += r.rowMisses;
        sum.latency += r.latency;
        sum.requests += r.requests;
    }
    void addFit(std::pair<double, double> errs)
    {
        pccsErr += errs.first;
        gablesErr += errs.second;
        ++fits;
    }
    double rowHitRate() const
    {
        return static_cast<double>(sum.rowHits) /
               static_cast<double>(sum.rowHits + sum.rowMisses);
    }
};

} // namespace

Outcome
runDramPolicies(const RunConfig &cfg)
{
    Outcome out;
    std::vector<std::string> policies;
    std::vector<PolicyPoint> grid;
    GBps peak = 0.0;

    // Set-up: registry lookup and the point grid, then a short
    // saturated warm-up point per policy (first-touch page faults and
    // code paths, not part of the measurement).
    runSetups(kSetups, out, [&](unsigned) {
        policies.clear();
        for (const std::string &name : dram::schedulerNames())
            policies.push_back(dram::schedulerFromName(name).name);
        grid.clear();
        for (GBps high : kHighDemands) {
            grid.push_back({high, 0.0});
            for (GBps low : kLowDemands)
                grid.push_back({high, low});
        }
        peak = dram::table1Config().peakBandwidth();
        for (const std::string &policy : policies) {
            dram::DramSystem sys(dram::table1Config(), policy);
            for (unsigned c = 0; c < 2 * kGroupCores; ++c) {
                dram::TrafficParams p;
                p.source = c;
                p.demand = 8.0;
                p.seed = passSeed(cfg.seed, 0) + c;
                sys.addGenerator(p);
            }
            sys.run(2000);
        }
    });

    const dram::DramRunMode mode = dram::defaultDramRunMode();
    std::vector<PointResult> first; // pass 0, for the reference check
    SimTotals totals;
    std::vector<calib::CalibrationMatrix> sums(policies.size());
    const unsigned passes = passCount(cfg, 2.0);
    runPasses(cfg, passes, out, [&](unsigned pass) {
        const std::uint64_t pass_seed = passSeed(cfg.seed, pass);
        for (std::size_t p = 0; p < policies.size(); ++p) {
            const std::string &policy = policies[p];
            Span policy_span(policy);
            calib::CalibrationMatrix m;
            m.standaloneBw = kHighDemands;
            m.externalBw = kLowDemands;
            double solo = 0.0;
            for (const PolicyPoint &pt : grid) {
                const Clock::time_point t0 = Clock::now();
                PointResult r =
                    runPolicyPoint(policy, pt, pass_seed, mode);
                const double dt = secondsBetween(t0, Clock::now());
                out.opLatencyUs.push_back(static_cast<float>(dt * 1e6));
                ++out.attempted;

                const double cycles = kPolicyWarmup + kPolicyWindow;
                const double total = pt.high + pt.low;
                Tracer &t = tracer();
                t.count("dram.points", 1);
                t.count("dram.sim_cycles", cycles);
                t.count("dram." + policy + ".cycles", cycles);
                t.count("dram." + policy + ".seconds", r.runSeconds);
                if (total <= 0.5 * peak) {
                    t.count("dram.light.cycles", cycles);
                    t.count("dram.light.seconds", r.runSeconds);
                } else if (total >= peak) {
                    t.count("dram.saturated.cycles", cycles);
                    t.count("dram.saturated.seconds", r.runSeconds);
                }

                if (pt.low == 0.0) {
                    solo = highLines(r);
                    m.rela.emplace_back();
                } else {
                    m.rela.back().push_back(
                        solo > 0.0 ? 100.0 * highLines(r) / solo : 0.0);
                }
                totals.add(r);
                if (pass == 0)
                    first.push_back(std::move(r));
            }
            accumulate(sums[p], m);
        }
    });
    tracer().setEnabled(cfg.trace);
    for (const calib::CalibrationMatrix &sum : sums)
        totals.addFit(fitAndScore(mean(sum, passes), peak));
    tracer().setEnabled(false);

    // Executable-specification check: a seeded sample of points per
    // policy re-run on the reference loop must match exactly.
    Rng pick(cfg.seed ^ 0x5eedu);
    for (std::size_t p = 0; p < policies.size(); ++p) {
        for (int k = 0; k < 2; ++k) {
            const std::size_t i = pick.below(grid.size());
            const PointResult ref =
                runPolicyPoint(policies[p], grid[i], passSeed(cfg.seed, 0),
                               dram::DramRunMode::Reference);
            const PointResult &got = first[p * grid.size() + i];
            out.check(ref.completed == got.completed &&
                          ref.bytes == got.bytes,
                      "dram_policies: " + policies[p] + " point " +
                          std::to_string(i) +
                          " differs from the reference loop");
        }
    }

    out.pccsErrPp = totals.pccsErr / totals.fits;
    out.gablesErrPp = totals.gablesErr / totals.fits;
    const double row_hit_rate = totals.rowHitRate();
    const double avg_latency = static_cast<double>(totals.sum.latency) /
                               static_cast<double>(totals.sum.requests);
    out.guard["dram.row_hit_rate"] = row_hit_rate;
    out.guard["dram.avg_latency_cycles"] = avg_latency;

    const Tracer &t = tracer();
    auto rate = [&](const std::string &prefix) {
        const double s = t.counter(prefix + ".seconds");
        return s > 0.0 ? t.counter(prefix + ".cycles") / s : 0.0;
    };
    const double run_s = t.totalSeconds("DramSystem::run");
    out.layer["dram.points"] = t.counter("dram.points");
    out.layer["dram.sim_cycles"] = t.counter("dram.sim_cycles");
    out.layer["dram.run_s"] = run_s;
    out.layer["dram.cycles_per_s"] =
        run_s > 0.0 ? t.counter("dram.sim_cycles") / run_s : 0.0;
    out.layer["dram.light.cycles_per_s"] = rate("dram.light");
    out.layer["dram.saturated.cycles_per_s"] = rate("dram.saturated");
    for (const std::string &policy : policies)
        out.layer["dram." + policy + ".cycles_per_s"] =
            rate("dram." + policy);
    out.layer["dram.row_hit_rate"] = row_hit_rate;
    out.layer["dram.avg_latency_cycles"] = avg_latency;
    out.layer["pccs.fit_s"] = t.totalSeconds("model::buildModelParams");
    return out;
}

// --- dram_multimc -----------------------------------------------------

namespace {

constexpr Cycles kMcWarmup = 4000;
constexpr Cycles kMcWindow = 16000;
/*
 * The ladder. Its shape copies calibrateMultiMc's defaults (McSweepSpec:
 * 4 victim demands x 4 pressures, 3 aggressors); the values below are
 * assumptions, each with its reason.
 *  - kVictimShares, of one controller's peak: under FR-FCFS a small,
 *    row-local victim is not slowed at all, and the fit takes the
 *    smallest victim's slowdown at the top of the ladder as MRMC;
 *    measurement noise there reads as a negative MRMC, which the
 *    construction rejects. The ladder therefore starts where every
 *    configuration slows the victim (the default starts at 0.2).
 *  - kPressureStep, of the configuration's total peak: the ladder
 *    climbs past that peak (to 120%), so every row reaches saturation.
 *  - kWriteFraction: about one write per two reads, so write timing
 *    weighs on every point while reads stay the majority. No figure
 *    or bench of the repository sets a write share.
 */
constexpr double kVictimShares[] = {0.4, 0.55, 0.7, 0.85};
constexpr double kPressureStep = 0.3;
constexpr unsigned kPressureSteps = 4;
constexpr unsigned kAggressors = 3;
constexpr double kWriteFraction = 0.3;
const char *const kMcPolicy = "FR-FCFS";

struct McConfig
{
    unsigned mcs = 2;
    dram::McMapping mapping = dram::McMapping::LineInterleaved;
};

struct McPoint
{
    GBps victim = 0.0;
    /** Aggregate aggressor demand as a share of the total peak; 0 = solo. */
    double pressure = 0.0;
};

/**
 * Source id of aggressor `a`. Sources own consecutive address slices,
 * so under range partitioning sources 0..63 split evenly over the
 * controllers; 8, 24 and 40 put one aggressor in the victim's (source
 * 0) partition at both 2 and 4 controllers, and the others elsewhere.
 */
unsigned
aggressorSource(unsigned a)
{
    return 8 + 16 * a;
}

PointResult
runMcPoint(const McConfig &mc, const McPoint &pt, std::uint64_t seed_base,
           dram::McRunMode mode)
{
    dram::MultiMcSystem sys(dram::table1Config(), mc.mcs, kMcPolicy,
                            mc.mapping, {}, mode);
    dram::TrafficParams v;
    v.source = 0;
    v.demand = pt.victim;
    v.seed = seed_base;
    sys.addGenerator(v);
    if (pt.pressure > 0.0) {
        const GBps external =
            pt.pressure * mc.mcs * dram::table1Config().peakBandwidth();
        for (unsigned a = 0; a < kAggressors; ++a) {
            dram::TrafficParams p;
            p.source = aggressorSource(a);
            p.demand = external / kAggressors;
            p.rowLocality = 0.85;
            p.writeFraction = kWriteFraction;
            p.seed = seed_base + p.source;
            sys.addGenerator(p);
        }
    }
    PointResult r;
    r.runSeconds = timed("MultiMcSystem::run", [&] { sys.run(kMcWarmup); });
    sys.resetMeasurement();
    r.runSeconds += timed("MultiMcSystem::run", [&] { sys.run(kMcWindow); });

    for (std::size_t g = 0; g < sys.numGenerators(); ++g)
        r.completed.push_back(sys.generator(g).completedLines());
    for (unsigned c = 0; c < sys.numControllers(); ++c)
        addStats(r, sys.controller(c).stats());
    r.victimBw = sys.achievedBandwidth(0);
    return r;
}

} // namespace

Outcome
runDramMultiMc(const RunConfig &cfg)
{
    Outcome out;
    std::vector<McConfig> configs;
    std::vector<McPoint> ladder;
    std::vector<GBps> victims;
    std::vector<double> pressure; ///< fractions of the total peak
    runner::SweepEngine &engine = runner::SweepEngine::global();

    runSetups(kSetups, out, [&](unsigned) {
        configs.clear();
        for (unsigned mcs : {2u, 4u})
            for (dram::McMapping mapping :
                 {dram::McMapping::LineInterleaved,
                  dram::McMapping::RangePartitioned})
                configs.push_back({mcs, mapping});
        const GBps per_mc = dram::table1Config().peakBandwidth();
        victims.clear();
        for (double share : kVictimShares)
            victims.push_back(share * per_mc);
        pressure.clear();
        for (unsigned j = 1; j <= kPressureSteps; ++j)
            pressure.push_back(kPressureStep * j);
        ladder.clear();
        for (GBps v : victims) {
            ladder.push_back({v, 0.0});
            for (double f : pressure)
                ladder.push_back({v, f});
        }
        for (const McConfig &mc : configs) {
            dram::MultiMcSystem sys(dram::table1Config(), mc.mcs,
                                    kMcPolicy, mc.mapping);
            dram::TrafficParams p;
            p.demand = 30.0;
            p.seed = passSeed(cfg.seed, 0);
            sys.addGenerator(p);
            sys.run(2000);
        }
    });
    out.provenance["mc_run_mode"] =
        dram::mcRunModeName(dram::defaultMcRunMode());

    const dram::McRunMode mode = dram::defaultMcRunMode();
    std::vector<PointResult> first; // pass 0, for the lockstep check
    SimTotals totals;
    std::vector<calib::CalibrationMatrix> sums(configs.size());
    const unsigned passes = passCount(cfg, 1.6);
    runPasses(cfg, passes, out, [&](unsigned pass) {
        const std::uint64_t pass_seed = passSeed(cfg.seed, pass);
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const McConfig &mc = configs[c];
            const std::string label =
                std::string(dram::mcMappingName(mc.mapping));
            Span config_span(label + "/" + std::to_string(mc.mcs));
            const GBps peak =
                mc.mcs * dram::table1Config().peakBandwidth();
            calib::CalibrationMatrix m;
            for (double f : pressure)
                m.externalBw.push_back(f * peak);
            double solo = 0.0;
            for (const McPoint &pt : ladder) {
                const Clock::time_point t0 = Clock::now();
                PointResult r = runMcPoint(mc, pt, pass_seed, mode);
                const double dt = secondsBetween(t0, Clock::now());
                out.opLatencyUs.push_back(static_cast<float>(dt * 1e6));
                ++out.attempted;

                const double cycles = kMcWarmup + kMcWindow;
                Tracer &t = tracer();
                t.count("multi_mc.points", 1);
                t.count("multi_mc.sim_cycles", cycles);
                t.count("multi_mc." + label + ".cycles", cycles);
                t.count("multi_mc." + label + ".seconds", r.runSeconds);

                if (pt.pressure == 0.0) {
                    solo = r.victimBw;
                    m.standaloneBw.push_back(solo);
                    m.rela.emplace_back();
                } else {
                    m.rela.back().push_back(
                        solo > 0.0 ? 100.0 * r.victimBw / solo : 0.0);
                }
                totals.add(r);
                if (pass == 0)
                    first.push_back(std::move(r));
            }
            accumulate(sums[c], m);

            // The calibration sweep a user would run next, on the
            // 2-controller configurations. Its aggressors spread over
            // the whole source range, so at 4 range-partitioned
            // controllers none would share the victim's partition.
            // Its matrix is not fitted: at its default pressure the
            // smallest victim can read above 100%, which the
            // construction cannot take.
            if (mc.mcs != 2)
                continue;
            calib::McSweepSpec spec;
            spec.numMcs = mc.mcs;
            spec.policy = kMcPolicy;
            spec.mapping = mc.mapping;
            spec.seed = pass_seed;
            timed("calib::calibrateMultiMc",
                  [&] { (void)calib::calibrateMultiMc(spec, &engine); });
        }
    });

    tracer().setEnabled(cfg.trace);
    for (std::size_t c = 0; c < configs.size(); ++c)
        totals.addFit(fitAndScore(mean(sums[c], passes),
                                  configs[c].mcs *
                                      dram::table1Config().peakBandwidth()));
    tracer().setEnabled(false);

    // Executable-specification check: a seeded sample of points per
    // configuration re-run on the lockstep loop must match exactly.
    Rng pick(cfg.seed ^ 0x5eedu);
    for (std::size_t c = 0; c < configs.size(); ++c) {
        for (int k = 0; k < 2; ++k) {
            const std::size_t i = pick.below(ladder.size());
            const PointResult ref =
                runMcPoint(configs[c], ladder[i], passSeed(cfg.seed, 0),
                           dram::McRunMode::Lockstep);
            const PointResult &got = first[c * ladder.size() + i];
            out.check(ref.completed == got.completed &&
                          ref.bytes == got.bytes,
                      "dram_multimc: config " + std::to_string(c) +
                          " point " + std::to_string(i) +
                          " differs from the lockstep loop");
        }
    }

    out.pccsErrPp = totals.pccsErr / totals.fits;
    out.gablesErrPp = totals.gablesErr / totals.fits;
    const double write_frac =
        static_cast<double>(totals.sum.writes) /
        static_cast<double>(totals.sum.reads + totals.sum.writes);
    const double row_hit_rate = totals.rowHitRate();
    out.guard["multi_mc.write_frac"] = write_frac;
    out.guard["multi_mc.row_hit_rate"] = row_hit_rate;

    const Tracer &t = tracer();
    auto rate = [&](const std::string &prefix) {
        const double s = t.counter(prefix + ".seconds");
        return s > 0.0 ? t.counter(prefix + ".cycles") / s : 0.0;
    };
    const double run_s = t.totalSeconds("MultiMcSystem::run");
    out.layer["multi_mc.points"] = t.counter("multi_mc.points");
    out.layer["multi_mc.run_s"] = run_s;
    out.layer["multi_mc.cycles_per_s"] =
        run_s > 0.0 ? t.counter("multi_mc.sim_cycles") / run_s : 0.0;
    for (dram::McMapping mapping : {dram::McMapping::LineInterleaved,
                                    dram::McMapping::RangePartitioned}) {
        const std::string label = dram::mcMappingName(mapping);
        out.layer["multi_mc." + label + ".cycles_per_s"] =
            rate("multi_mc." + label);
    }
    out.layer["multi_mc.write_frac"] = write_frac;
    out.layer["multi_mc.row_hit_rate"] = row_hit_rate;
    out.layer["calib.multimc_s"] =
        t.totalSeconds("calib::calibrateMultiMc");
    out.layer["pccs.fit_s"] = t.totalSeconds("model::buildModelParams");
    out.engineJobs = engine.jobs();
    out.layer["runner.jobs"] = engine.jobs();
    return out;
}

} // namespace perfbench

/**
 * @file
 * google-benchmark microbenchmarks of the library's hot paths: model
 * evaluation, model construction, bandwidth allocation, the DRAM
 * simulator's cycle loop (reference and event-driven), the SoC
 * simulator's sweep point and per-PU calibration, and the serve
 * path's JSON number I/O and its predict and mixed-burst dispatch.
 * These quantify the cost of using PCCS inside a design-space
 * exploration loop and behind `pccs serve`.
 *
 * Beyond the standard google-benchmark flags, `--json <path>` writes a
 * machine-readable snapshot ({benchmark, ns/op, items/s}) of every run
 * — CI stores it as the BENCH_dram.json artifact — and
 * `--min-cycles-per-sec <n>` exits nonzero unless every saturated
 * DRAM row that ran (the headline event-driven row plus each
 * per-policy row) sustained at least `n` simulated cycles/s (the CI
 * perf-smoke floor for the fast issue engine). The per-policy
 * saturated rows are registered under their policy names
 * (`BM_DramCyclesSaturatedPolicy/FR-FCFS`, ...); `--policies a,b` or
 * the PCCS_POLICY_FILTER environment variable restricts which
 * policies get rows, so CI floors can target policy subsets. The
 * saturated event-driven DRAM rows also report `evals/cmd`: channel
 * evaluations of the fast issue engine per issued DRAM command.
 *
 * The `BM_DramCyclesSaturatedPolicy/<policy>` rows move by up to +-14%
 * from code layout alone (appending one unused function to another
 * policy's source file shifted them that much), so single runs of
 * these rows cannot resolve per-policy effects below ~15%.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "calib/calibrator.hh"
#include "common/rng.hh"
#include "dram/system.hh"
#include "gables/gables.hh"
#include "pccs/builder.hh"
#include "runner/run_spec.hh"
#include "runner/sweep_engine.hh"
#include "serve/protocol.hh"
#include "soc/simulator.hh"
#include "workloads/rodinia.hh"

using namespace pccs;

namespace {

const soc::SocConfig &
xavier()
{
    static const soc::SocConfig cfg = soc::xavierLike();
    return cfg;
}

const model::PccsModel &
gpuModel()
{
    static const model::PccsModel m = [] {
        const soc::SocSimulator sim(xavier());
        return model::buildModel(
            sim, xavier().puIndex(soc::PuKind::Gpu));
    }();
    return m;
}

void
BM_PccsPredict(benchmark::State &state)
{
    const model::PccsModel &m = gpuModel();
    double x = 10.0, y = 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(m.relativeSpeed(x, y));
        x = x < 120.0 ? x + 1.0 : 10.0;
        y = y < 100.0 ? y + 1.0 : 5.0;
    }
}
BENCHMARK(BM_PccsPredict);

void
BM_GablesPredict(benchmark::State &state)
{
    const gables::GablesModel g(137.0);
    double x = 10.0, y = 5.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(g.relativeSpeed(x, y));
        x = x < 120.0 ? x + 1.0 : 10.0;
        y = y < 100.0 ? y + 1.0 : 5.0;
    }
}
BENCHMARK(BM_GablesPredict);

/** Deterministic structure-of-arrays demand grid for batch benches. */
void
fillDemandGrid(std::vector<double> &xs, std::vector<double> &ys,
               std::size_t n)
{
    xs.resize(n);
    ys.resize(n);
    double x = 10.0, y = 5.0;
    for (std::size_t i = 0; i < n; ++i) {
        xs[i] = x;
        ys[i] = y;
        x = x < 120.0 ? x + 1.0 : 10.0;
        y = y < 100.0 ? y + 1.0 : 5.0;
    }
}

void
BM_PccsPredictBatch(benchmark::State &state)
{
    const model::PccsModel &m = gpuModel();
    std::vector<double> xs, ys;
    fillDemandGrid(xs, ys, static_cast<std::size_t>(state.range(0)));
    std::vector<double> speeds(xs.size());
    for (auto _ : state) {
        m.relativeSpeedBatch(xs, ys, speeds);
        benchmark::DoNotOptimize(speeds.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_PccsPredictBatch)->Arg(4096)->ArgNames({"points"});

void
BM_GablesPredictBatch(benchmark::State &state)
{
    const gables::GablesModel g(137.0);
    std::vector<double> xs, ys;
    fillDemandGrid(xs, ys, static_cast<std::size_t>(state.range(0)));
    std::vector<double> speeds(xs.size());
    for (auto _ : state) {
        g.relativeSpeedBatch(xs, ys, speeds);
        benchmark::DoNotOptimize(speeds.data());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(xs.size()));
}
BENCHMARK(BM_GablesPredictBatch)->Arg(4096)->ArgNames({"points"});

/** Full-precision model answers: what a predict reply carries. */
std::vector<double>
replyNumbers(std::size_t n)
{
    std::vector<double> xs, ys;
    fillDemandGrid(xs, ys, n);
    std::vector<double> out(n);
    gpuModel().relativeSpeedBatch(xs, ys, out);
    for (std::size_t i = 0; i < n; ++i)
        out[i] = i % 2 ? 100.0 / out[i] : out[i] / 3.0;
    return out;
}

void
BM_JsonNumberWrite(benchmark::State &state)
{
    const std::vector<double> values = replyNumbers(1024);
    std::string out;
    for (auto _ : state) {
        out.clear();
        for (const double v : values)
            runner::appendJsonNumber(out, v);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(values.size()));
}
BENCHMARK(BM_JsonNumberWrite);

void
BM_JsonNumberRead(benchmark::State &state)
{
    std::vector<std::string> tokens;
    for (const double v : replyNumbers(1024))
        tokens.push_back(runner::jsonNumber(v));
    for (auto _ : state) {
        double sum = 0.0;
        for (const std::string &t : tokens)
            sum += runner::parseJsonNumber(t);
        benchmark::DoNotOptimize(sum);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(tokens.size()));
}
BENCHMARK(BM_JsonNumberRead);

/** One Dispatcher::handleFrames call over a burst of predict frames,
 *  no sockets: parse, batch evaluation and reply serialization. */
void
BM_ServePredictBurst(benchmark::State &state)
{
    serve::ModelRegistry registry;
    registry.addFromParams("gpu", gpuModel().params(), "bench");
    serve::Metrics metrics;
    serve::Dispatcher dispatcher(registry, metrics);
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    std::vector<std::string> texts;
    for (std::size_t i = 0; i < n; ++i) {
        const double k = static_cast<double>(i);
        texts.push_back("{\"op\":\"predict\",\"id\":" +
                        std::to_string(i) +
                        ",\"model\":\"gpu\",\"demand\":" +
                        runner::jsonNumber(10.0 + k * 1.7320508075688772) +
                        ",\"external\":" +
                        runner::jsonNumber(5.0 + k * 0.7071067811865476) +
                        "}");
    }
    std::vector<serve::FrameBuffer::View> frames;
    for (const std::string &t : texts)
        frames.push_back({t});
    serve::Dispatcher::Scratch scratch;
    for (auto _ : state) {
        dispatcher.handleFrames(frames.data(), frames.size(), scratch);
        benchmark::DoNotOptimize(scratch.wire.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ServePredictBurst)->Arg(64)->ArgNames({"frames"})->Unit(
    benchmark::kMicrosecond);

/**
 * One Dispatcher::handleFrames call over a burst with perfbench
 * serve_mixed's op mix, no sockets: half `predict`, the rest
 * `schedule` (load 0.3, or when nothing is resident) or `complete` of
 * a resident job, and one `sched_stats` per burst. Building the frames
 * and collecting the admitted handles from the replies is untimed.
 */
void
BM_ServeMixedBurst(benchmark::State &state)
{
    serve::ModelRegistry registry;
    registry.addFromParams("gpu", gpuModel().params(), "bench");
    serve::Metrics metrics;
    serve::Dispatcher dispatcher(registry, metrics);
    const std::vector<std::string> benches = workloads::gpuBenchmarks();
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    Rng rng(1);
    std::vector<std::string> handles;
    std::vector<std::string> texts(n);
    std::vector<serve::FrameBuffer::View> frames(n);
    serve::Dispatcher::Scratch scratch;
    std::uint64_t id = 0;
    char buf[256];
    for (auto _ : state) {
        state.PauseTiming();
        for (std::size_t i = 0; i < n; ++i) {
            if (i + 1 == n) {
                std::snprintf(buf, sizeof buf,
                              "{\"op\":\"sched_stats\",\"id\":%llu,"
                              "\"soc\":\"xavier\"}",
                              static_cast<unsigned long long>(id++));
            } else if (rng.uniform() < 0.5) {
                std::snprintf(buf, sizeof buf,
                              "{\"op\":\"predict\",\"id\":%llu,"
                              "\"model\":\"gpu\",\"demand\":%.17g,"
                              "\"external\":%.17g}",
                              static_cast<unsigned long long>(id++),
                              rng.uniform(5.0, 120.0),
                              rng.uniform(0.0, 100.0));
            } else if (handles.empty() || rng.chance(0.3)) {
                std::snprintf(
                    buf, sizeof buf,
                    "{\"op\":\"schedule\",\"id\":%llu,\"soc\":\"xavier\","
                    "\"slo\":%.17g,\"bench\":\"%s\"}",
                    static_cast<unsigned long long>(id++),
                    1.1 + rng.uniform() * 0.9,
                    benches[rng.below(benches.size())].c_str());
            } else {
                const std::size_t k = rng.below(handles.size());
                std::snprintf(
                    buf, sizeof buf,
                    "{\"op\":\"complete\",\"id\":%llu,\"soc\":\"xavier\","
                    "\"job\":\"%s\"}",
                    static_cast<unsigned long long>(id++),
                    handles[k].c_str());
                handles.erase(handles.begin() +
                              static_cast<std::ptrdiff_t>(k));
            }
            texts[i] = buf;
            frames[i] = {texts[i]};
        }
        state.ResumeTiming();
        dispatcher.handleFrames(frames.data(), frames.size(), scratch);
        benchmark::DoNotOptimize(scratch.wire.data());
        benchmark::ClobberMemory();
        state.PauseTiming();
        const std::string_view admitted =
            "\"decision\":\"admitted\",\"job\":\"";
        const std::string &w = scratch.wire;
        for (std::size_t p = w.find(admitted); p != std::string::npos;
             p = w.find(admitted, p)) {
            p += admitted.size();
            handles.emplace_back(w, p, w.find('"', p) - p);
        }
        state.ResumeTiming();
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ServeMixedBurst)->Arg(64)->ArgNames({"frames"})->Unit(
    benchmark::kMicrosecond);

void
BM_WaterFillAllocation(benchmark::State &state)
{
    const soc::SharedMemorySystem mem(xavier().memory);
    const std::vector<soc::BandwidthDemand> demands{
        {80.0, 0.95, 1.0}, {60.0, 0.9, 1.1}, {25.0, 0.94, 0.8}};
    for (auto _ : state)
        benchmark::DoNotOptimize(mem.allocate(demands));
}
BENCHMARK(BM_WaterFillAllocation);

/** One calibrator solve: a GPU kernel at a mid-range target. */
void
BM_MakeCalibrator(benchmark::State &state)
{
    const soc::ExecutionModel model(xavier().memory);
    const soc::PuParams &gpu = xavier().pu(soc::PuKind::Gpu);
    const GBps target = 0.5 * gpu.drawBandwidth();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            calib::makeCalibrator(model, gpu, target));
}
BENCHMARK(BM_MakeCalibrator);

void
BM_StandaloneProfile(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const soc::KernelProfile k = calib::makeCalibrator(
        sim.model(), xavier().pu(soc::PuKind::Gpu), 70.0);
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    for (auto _ : state)
        benchmark::DoNotOptimize(sim.profile(gpu, k));
}
BENCHMARK(BM_StandaloneProfile);

/** One SoC sweep point: a calibrator under synthetic pressure. */
void
BM_SocRelativeSpeed(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    const soc::KernelProfile k = calib::makeCalibrator(
        sim.model(), xavier().pus[gpu], 70.0);
    double y = 10.0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            sim.relativeSpeedUnderPressure(gpu, k, y));
        y = y < 100.0 ? y + 1.0 : 10.0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SocRelativeSpeed);

/** The Sec. 3.2 calibration of one PU: calibrators plus rela matrix. */
void
BM_SocCalibrate(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    for (auto _ : state)
        benchmark::DoNotOptimize(calib::calibrate(sim, gpu));
}
BENCHMARK(BM_SocCalibrate)->Unit(benchmark::kMicrosecond);

void
BM_ModelConstruction(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    for (auto _ : state)
        benchmark::DoNotOptimize(model::buildModel(sim, gpu));
}
BENCHMARK(BM_ModelConstruction)->Unit(benchmark::kMillisecond);

void
BM_DramCyclesUnderLoad(benchmark::State &state)
{
    // Cost of one simulated bus cycle with 16 active cores.
    dram::DramSystem sys(dram::table1Config(),
                         "FR-FCFS");
    for (unsigned c = 0; c < 16; ++c) {
        dram::TrafficParams p;
        p.source = c;
        p.demand = 6.0;
        p.seed = 10 + c;
        sys.addGenerator(p);
    }
    sys.run(10000); // warm the queues
    for (auto _ : state)
        sys.run(static_cast<Cycles>(state.range(0)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_DramCyclesUnderLoad)->Arg(1000)->Unit(
    benchmark::kMicrosecond);

/** Fast-engine channel evaluations and issued DRAM commands. */
struct EngineCounts
{
    std::uint64_t evals = 0;
    std::uint64_t cmds = 0;
};

/** Summed over the system's controllers. */
EngineCounts
engineCounts(const dram::DramSystem &sys)
{
    EngineCounts sum;
    for (unsigned mc = 0; mc < sys.numControllers(); ++mc) {
        sum.evals += sys.controller(mc).channelEvaluations();
        sum.cmds += sys.controller(mc).issuedCommands();
    }
    return sum;
}

/**
 * Report the timed loop's fast-engine evaluations per issued command
 * as the `evals/cmd` counter (1.0: every evaluation issues). Rows
 * whose run loop has no lazy channel scan report nothing.
 */
void
reportEvalsPerCommand(benchmark::State &state, const EngineCounts &before,
                      const EngineCounts &after)
{
    const std::uint64_t cmds = after.cmds - before.cmds;
    if (after.evals == before.evals || cmds == 0)
        return;
    state.counters["evals/cmd"] =
        static_cast<double>(after.evals - before.evals) /
        static_cast<double>(cmds);
}

/**
 * Simulated-cycles-per-second of the two DRAM run loops, reported via
 * items/s (one item = one simulated bus cycle). Idle-heavy case: one
 * low-demand core, so the event core skips long quiet stretches.
 */
void
dramCyclesIdleSingle(benchmark::State &state, dram::RunMode mode)
{
    dram::DramSystem sys(dram::table1Config(),
                         "FR-FCFS",
                         dram::SchedulerParams{}, mode);
    dram::TrafficParams p;
    p.source = 0;
    p.demand = 0.8; // ~1 line every ~240 cycles
    p.mlp = 8;
    p.seed = 7;
    sys.addGenerator(p);
    sys.run(10000);
    for (auto _ : state)
        sys.run(static_cast<Cycles>(state.range(0)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
}

void
BM_DramCyclesIdleSingleReference(benchmark::State &state)
{
    dramCyclesIdleSingle(state, dram::RunMode::Reference);
}
BENCHMARK(BM_DramCyclesIdleSingleReference)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void
BM_DramCyclesIdleSingleEventDriven(benchmark::State &state)
{
    dramCyclesIdleSingle(state, dram::RunMode::EventDriven);
}
BENCHMARK(BM_DramCyclesIdleSingleEventDriven)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/**
 * Saturated case: four cores demanding 120 GB/s against a 102.4 GB/s
 * system; nearly every cycle is active, so the event core's win comes
 * from the incremental controller bookkeeping, not from skipping.
 */
void
dramCyclesSaturated4(benchmark::State &state, dram::RunMode mode)
{
    dram::DramSystem sys(dram::table1Config(),
                         "FR-FCFS",
                         dram::SchedulerParams{}, mode);
    for (unsigned c = 0; c < 4; ++c) {
        dram::TrafficParams p;
        p.source = c;
        p.demand = 30.0;
        p.seed = 20 + c;
        sys.addGenerator(p);
    }
    sys.run(10000); // fill the queues
    const EngineCounts before = engineCounts(sys);
    for (auto _ : state)
        sys.run(static_cast<Cycles>(state.range(0)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
    reportEvalsPerCommand(state, before, engineCounts(sys));
}

void
BM_DramCyclesSaturated4Reference(benchmark::State &state)
{
    dramCyclesSaturated4(state, dram::RunMode::Reference);
}
BENCHMARK(BM_DramCyclesSaturated4Reference)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void
BM_DramCyclesSaturated4EventDriven(benchmark::State &state)
{
    dramCyclesSaturated4(state, dram::RunMode::EventDriven);
}
BENCHMARK(BM_DramCyclesSaturated4EventDriven)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/**
 * The Figure 5 shape: eight low-group plus eight high-group cores
 * (60 + 90 GB/s against the 102.4 GB/s peak), so the request buffers
 * stay full and most sources sit blocked or at their MLP limit. The
 * event-driven loop leaves those sources unticked; the reference loop
 * ticks all sixteen and retries every blocked enqueue each cycle.
 */
void
dramCyclesSaturated16(benchmark::State &state, dram::RunMode mode)
{
    dram::DramSystem sys(dram::table1Config(), "FR-FCFS",
                         dram::SchedulerParams{}, mode);
    for (unsigned c = 0; c < 16; ++c) {
        dram::TrafficParams p;
        p.source = c;
        p.demand = c < 8 ? 60.0 / 8 : 90.0 / 8;
        p.seed = 40 + c;
        sys.addGenerator(p);
    }
    sys.run(10000); // fill the queues
    const EngineCounts before = engineCounts(sys);
    for (auto _ : state)
        sys.run(static_cast<Cycles>(state.range(0)));
    state.SetItemsProcessed(state.iterations() * state.range(0));
    reportEvalsPerCommand(state, before, engineCounts(sys));
}

void
BM_DramCyclesSaturated16Reference(benchmark::State &state)
{
    dramCyclesSaturated16(state, dram::RunMode::Reference);
}
BENCHMARK(BM_DramCyclesSaturated16Reference)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void
BM_DramCyclesSaturated16EventDriven(benchmark::State &state)
{
    dramCyclesSaturated16(state, dram::RunMode::EventDriven);
}
BENCHMARK(BM_DramCyclesSaturated16EventDriven)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/**
 * The same saturated workload once per registered policy (event-driven
 * mode, so every row measures that policy's mask-based fastPick()).
 * Registered programmatically from main() so each row carries
 * its policy name (`BM_DramCyclesSaturatedPolicy/FR-FCFS`) instead of
 * a registry index, and so `--policies` can restrict the set.
 */
void
dramCyclesSaturatedPolicy(benchmark::State &state,
                          const std::string &policy)
{
    constexpr Cycles kCycles = 20000;
    dram::DramSystem sys(dram::table1Config(), policy,
                         dram::SchedulerParams{},
                         dram::RunMode::EventDriven);
    for (unsigned c = 0; c < 4; ++c) {
        dram::TrafficParams p;
        p.source = c;
        p.demand = 30.0;
        p.seed = 20 + c;
        sys.addGenerator(p);
    }
    sys.run(10000); // fill the queues
    const EngineCounts before = engineCounts(sys);
    for (auto _ : state)
        sys.run(kCycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kCycles));
    reportEvalsPerCommand(state, before, engineCounts(sys));
}

/**
 * Simulated-cycles-per-second of the two multi-MC run loops
 * (4 MCs x 1 channel, range-partitioned). Idle/mixed case: two
 * low-demand cores in two slices, so two controllers are completely
 * idle — the reference loop still ticks all four every cycle, and the
 * event-driven loop jumps over the quiet stretches.
 */
void
multiMcCycles(benchmark::State &state, dram::RunMode mode,
              bool saturated, const std::string &policy = "FR-FCFS",
              Cycles cycles = 0) // 0: take the count from range(0)
{
    dram::DramConfig cfg = dram::table1Config();
    cfg.channels = 1;
    cfg.requestBufferEntries = 64;
    dram::DramSystem sys(cfg, 4, policy,
                         dram::McMapping::RangePartitioned,
                         dram::SchedulerParams{}, mode);
    const unsigned sources = saturated ? 4 : 2;
    for (unsigned c = 0; c < sources; ++c) {
        dram::TrafficParams p;
        p.source = c * 16; // one source slice per controller
        // Saturated: 30 GB/s against 25.6 GB/s per MC. Idle: a
        // trickle (~1 line every ~240 cycles) on half the MCs.
        p.demand = saturated ? 30.0 : 0.8;
        p.mlp = saturated ? 64 : 8;
        p.seed = 20 + c;
        sys.addGenerator(p);
    }
    sys.run(10000);
    if (cycles == 0)
        cycles = static_cast<Cycles>(state.range(0));
    const EngineCounts before = engineCounts(sys);
    for (auto _ : state)
        sys.run(cycles);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cycles));
    if (saturated)
        reportEvalsPerCommand(state, before, engineCounts(sys));
}

void
BM_MultiMcCyclesIdleLockstep(benchmark::State &state)
{
    multiMcCycles(state, dram::RunMode::Reference, false);
}
BENCHMARK(BM_MultiMcCyclesIdleLockstep)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiMcCyclesIdleEventDriven(benchmark::State &state)
{
    multiMcCycles(state, dram::RunMode::EventDriven, false);
}
BENCHMARK(BM_MultiMcCyclesIdleEventDriven)
    ->Arg(100000)
    ->Unit(benchmark::kMillisecond);

/**
 * Saturated case: one 30 GB/s core per 25.6 GB/s controller, so every
 * controller is active nearly every cycle, so skipping buys little;
 * the event-driven lead comes from the controllers' fast issue
 * engine (lazy channel scans, mask-based picks).
 */
void
BM_MultiMcCyclesSaturatedLockstep(benchmark::State &state)
{
    multiMcCycles(state, dram::RunMode::Reference, true);
}
BENCHMARK(BM_MultiMcCyclesSaturatedLockstep)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

void
BM_MultiMcCyclesSaturatedEventDriven(benchmark::State &state)
{
    multiMcCycles(state, dram::RunMode::EventDriven, true);
}
BENCHMARK(BM_MultiMcCyclesSaturatedEventDriven)
    ->Arg(20000)
    ->Unit(benchmark::kMillisecond);

/**
 * The saturated multi-MC workload once per registered policy
 * (event-driven mode — each MemoryController inherits the fast issue
 * engine, so these rows show the per-source tier passes under the
 * multi-controller loops). Registered programmatically from main()
 * with policy-name row labels, same as the single-MC per-policy rows.
 */
void
multiMcCyclesSaturatedPolicy(benchmark::State &state,
                             const std::string &policy)
{
    multiMcCycles(state, dram::RunMode::EventDriven, true, policy,
                  20000);
}

/**
 * Raw policy-decision cost on a synthetic 32-entry queue: one
 * reference-loop decision per iteration — the prepare() state step,
 * the key argmax pick(), then commit().
 */
void
schedulerPick(benchmark::State &state, const std::string &policy)
{
    auto sched = dram::makeScheduler(policy);
    dram::RequestQueue queue(32, 8);
    std::vector<dram::QueueEntryView> entries;
    for (unsigned i = 0; i < 32; ++i) {
        dram::Request r;
        r.id = i;
        r.source = i % 16;
        r.arrival = i;
        r.loc.row = i / 4;
        const int s = queue.push_back(r, false);
        entries.push_back({&queue.slot(s), (i % 3) != 0, (i % 2) == 0});
    }
    for (auto _ : state) {
        sched->prepare(0, queue, 1000);
        const int idx = sched->pick(0, entries, 1000);
        sched->commit(
            0, idx < 0 ? nullptr : entries[static_cast<std::size_t>(idx)].req,
            true);
        benchmark::DoNotOptimize(idx);
    }
}

/**
 * Register the per-policy saturated and decision rows, restricted to
 * `filter` when non-empty (entries already validated against the
 * registry). Called from main() after benchmark::Initialize so each
 * row is named after its policy rather than a registry index.
 */
void
registerPerPolicyBenchmarks(const std::vector<std::string> &filter)
{
    for (const auto &info : dram::schedulerPolicies()) {
        if (!filter.empty() &&
            std::find(filter.begin(), filter.end(), info.name) ==
                filter.end()) {
            continue;
        }
        const std::string name = info.name;
        benchmark::RegisterBenchmark(
            ("BM_DramCyclesSaturatedPolicy/" + name).c_str(),
            [name](benchmark::State &st) {
                dramCyclesSaturatedPolicy(st, name);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_MultiMcCyclesSaturatedPolicy/" + name).c_str(),
            [name](benchmark::State &st) {
                multiMcCyclesSaturatedPolicy(st, name);
            })
            ->Unit(benchmark::kMillisecond);
        benchmark::RegisterBenchmark(
            ("BM_SchedulerPick/" + name).c_str(),
            [name](benchmark::State &st) { schedulerPick(st, name); });
    }
}

/** A 64-point sweep batch (8 kernels x 8 external-BW steps). */
std::vector<runner::EvalPoint>
sweepBatch(const soc::SocSimulator &sim, std::size_t gpu)
{
    std::vector<runner::EvalPoint> points;
    for (unsigned i = 0; i < 8; ++i) {
        const soc::KernelProfile k = calib::makeCalibrator(
            sim.model(), sim.config().pus[gpu], 20.0 + 12.0 * i);
        for (unsigned j = 1; j <= 8; ++j)
            points.push_back({gpu, k, 12.5 * j});
    }
    return points;
}

/** Engine throughput: evaluateBatch of 64 sweep points. */
void
BM_EngineSweepThroughput(benchmark::State &state)
{
    const soc::SocSimulator sim(xavier());
    const std::size_t gpu = static_cast<std::size_t>(
        xavier().puIndex(soc::PuKind::Gpu));
    const runner::SweepEngine engine(1);
    const auto points = sweepBatch(sim, gpu);
    for (auto _ : state)
        benchmark::DoNotOptimize(engine.evaluateBatch(sim, points));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(points.size()));
}
BENCHMARK(BM_EngineSweepThroughput)->Unit(benchmark::kMillisecond);

/**
 * Console output as usual, plus an in-memory snapshot of every
 * per-iteration run for the `--json` artifact. (A display-reporter
 * subclass, because benchmark's separate file reporter only engages
 * with --benchmark_out.)
 */
class JsonSnapshotReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &r : runs) {
            if (r.run_type != Run::RT_Iteration || r.error_occurred)
                continue;
            Row row;
            row.name = r.benchmark_name();
            row.nsPerOp = r.iterations
                              ? r.real_accumulated_time /
                                    static_cast<double>(r.iterations) *
                                    1e9
                              : 0.0;
            const auto it = r.counters.find("items_per_second");
            row.itemsPerSecond =
                it != r.counters.end() ? it->second.value : 0.0;
            rows_.push_back(std::move(row));
        }
        benchmark::ConsoleReporter::ReportRuns(runs);
    }

    /**
     * Enforce a throughput floor on every saturated event-driven DRAM
     * row that ran, single- and multi-MC: the 4- and 16-source
     * headline rows, the multi-MC row, and each per-policy row (CI
     * perf smoke; `--policies` narrows the per-policy set along with
     * the run set). The per-cycle Reference and Lockstep rows are
     * specifications, not fast paths, and are never floored.
     * @return true when at least one such row ran and all met the
     *         floor.
     */
    bool checkSaturatedFloor(double min_cycles_per_sec) const
    {
        bool found = false;
        bool ok = true;
        const Row *worst = nullptr;
        for (const Row &row : rows_) {
            const bool saturated =
                row.name.rfind("BM_DramCyclesSaturated", 0) == 0 ||
                row.name.rfind("BM_MultiMcCyclesSaturated", 0) == 0;
            const bool per_cycle =
                row.name.find("Reference") != std::string::npos ||
                row.name.find("Lockstep") != std::string::npos;
            if (!saturated || per_cycle)
                continue;
            found = true;
            if (!worst || row.itemsPerSecond < worst->itemsPerSecond)
                worst = &row;
            if (row.itemsPerSecond < min_cycles_per_sec) {
                std::fprintf(stderr,
                             "perf floor FAILED: %s ran %.0f "
                             "cycles/s, floor %.0f\n",
                             row.name.c_str(), row.itemsPerSecond,
                             min_cycles_per_sec);
                ok = false;
            }
        }
        if (!found) {
            std::fprintf(stderr,
                         "perf floor FAILED: no saturated DRAM row "
                         "ran (check --benchmark_filter / "
                         "--policies)\n");
            return false;
        }
        if (ok) {
            std::printf("perf floor ok: worst row %s ran %.0f >= "
                        "%.0f cycles/s\n",
                        worst->name.c_str(), worst->itemsPerSecond,
                        min_cycles_per_sec);
        }
        return ok;
    }

    /** Write the snapshot; fatal-free (a bench must not fail late). */
    void write(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return;
        }
        std::fprintf(f, "{\n  \"benchmarks\": [\n");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row &row = rows_[i];
            std::fprintf(f,
                         "    {\"name\": \"%s\", \"ns_per_op\": %.3f, "
                         "\"items_per_second\": %.3f}%s\n",
                         row.name.c_str(), row.nsPerOp,
                         row.itemsPerSecond,
                         i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(f, "  ]\n}\n");
        std::fclose(f);
        std::printf("wrote %s\n", path.c_str());
    }

  private:
    struct Row
    {
        std::string name;
        double nsPerOp = 0.0;
        /** Simulated cycles (or sweep points) per wall-clock second. */
        double itemsPerSecond = 0.0;
    };
    std::vector<Row> rows_;
};

/**
 * Parse a comma-separated policy list into canonical registry names.
 * Unknown names are a fatal error (a typo in a CI floor should fail
 * loudly, not silently benchmark nothing).
 * @return false on an unknown policy name.
 */
bool
parsePolicyFilter(const std::string &list,
                  std::vector<std::string> &filter)
{
    std::size_t pos = 0;
    while (pos <= list.size()) {
        const std::size_t comma = list.find(',', pos);
        const std::string token = list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        if (!token.empty()) {
            const dram::PolicyInfo *info =
                dram::findSchedulerPolicy(token);
            if (!info) {
                std::fprintf(stderr,
                             "unknown policy '%s' (valid: %s)\n",
                             token.c_str(),
                             dram::schedulerNameList().c_str());
                return false;
            }
            filter.push_back(info->name);
        }
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    // Peel off `--json <path>` / `--json=<path>`,
    // `--min-cycles-per-sec <n>`, and `--policies <a,b>` before
    // benchmark's own flag parsing (it rejects unknown flags).
    std::string json_path;
    std::string policy_list;
    if (const char *env = std::getenv("PCCS_POLICY_FILTER"))
        policy_list = env;
    double min_cycles_per_sec = 0.0;
    std::vector<char *> args;
    for (int i = 0; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--json" && i + 1 < argc) {
            json_path = argv[++i];
        } else if (arg.rfind("--json=", 0) == 0) {
            json_path = arg.substr(7);
        } else if (arg == "--min-cycles-per-sec" && i + 1 < argc) {
            min_cycles_per_sec = std::atof(argv[++i]);
        } else if (arg.rfind("--min-cycles-per-sec=", 0) == 0) {
            min_cycles_per_sec = std::atof(arg.c_str() + 21);
        } else if (arg == "--policies" && i + 1 < argc) {
            policy_list = argv[++i];
        } else if (arg.rfind("--policies=", 0) == 0) {
            policy_list = arg.substr(11);
        } else {
            args.push_back(argv[i]);
        }
    }
    std::vector<std::string> policy_filter;
    if (!parsePolicyFilter(policy_list, policy_filter))
        return 1;
    int bench_argc = static_cast<int>(args.size());
    benchmark::Initialize(&bench_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data()))
        return 1;
    registerPerPolicyBenchmarks(policy_filter);
    JsonSnapshotReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    if (!json_path.empty())
        reporter.write(json_path);
    benchmark::Shutdown();
    if (min_cycles_per_sec > 0.0 &&
        !reporter.checkSaturatedFloor(min_cycles_per_sec)) {
        return 1;
    }
    return 0;
}

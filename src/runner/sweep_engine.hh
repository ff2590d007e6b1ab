/**
 * @file
 * The sweep engine: the evaluation entry point of sweep-shaped
 * consumers of the SoC simulator, plus a worker pool for DRAM point
 * fan-out.
 *
 * The predicted-vs-actual benches (`bench::sweepKernel`), the design
 * explorer and the QoS controller evaluate (SoC, PU, kernel,
 * external-BW) points through the engine. Each such point is a
 * closed-form `SocSimulator` evaluation of about a tenth of a
 * microsecond, so the engine runs them inline on the calling thread:
 * no memo (distinct designs almost never repeat a point) and no pool
 * hand-off (waking workers costs more than the batch). Batches are
 * cut into kernel x pressure grids (`evaluateBatch`).
 *
 * The pool runs whole, independent DRAM simulations through
 * `calib::runDramPoints`, for the fig05, table03 and ext_multimc benches
 * and `calib::calibrateMultiMc`. Its results are
 * bit-identical to serial execution: point ordering is deterministic
 * and each point writes only its own result slot. Pool sizing:
 * `std::thread::hardware_concurrency()` by default, overridable with
 * the `PCCS_JOBS` environment variable. `PCCS_JOBS=1` disables the
 * pool entirely (pure serial fallback). Workers start on the first
 * parallel batch, so processes that only evaluate SoC points (the
 * server, most benches) never spawn them.
 */

#ifndef PCCS_RUNNER_SWEEP_ENGINE_HH
#define PCCS_RUNNER_SWEEP_ENGINE_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "soc/simulator.hh"

namespace pccs::runner {

/** Hit/miss counters of `SweepEngine::cache()`, which are always 0. */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

    std::uint64_t lookups() const { return hits + misses; }

    /** @return hits / lookups in [0, 1]; 0 when never consulted. */
    double hitRate() const
    {
        return lookups() > 0
                   ? static_cast<double>(hits) /
                         static_cast<double>(lookups())
                   : 0.0;
    }
};

/** One independent sweep point: a kernel on a PU under pressure. */
struct EvalPoint
{
    std::size_t puIndex = 0;
    soc::KernelProfile kernel;
    GBps externalBw = 0.0;
};

/**
 * A fixed-size pool of `std::jthread` workers executing indexed loop
 * bodies. One batch runs at a time; `run()` blocks until the batch
 * completes and the calling thread participates in the work. The
 * threads are spawned by the first `run()` that has more than one
 * index, so a process that never fans out carries no idle workers.
 */
class ThreadPool
{
  public:
    /** Size the pool at `workers` threads (0 = run() executes inline). */
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * @return number of pool threads spawned so far (excluding the
     * caller): 0 until the first parallel run(), the pool size after.
     * Not synchronized with a run() in progress on another thread.
     */
    unsigned workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /**
     * Execute body(0) .. body(count - 1), distributing indices over
     * the pool plus the calling thread. Indices are claimed atomically
     * but each index runs exactly once and writes only what the body
     * makes it write, so any pure body yields results identical to a
     * serial loop. Blocks until every index completed. Bodies must not
     * call run() on the same pool (batches do not nest).
     */
    void run(std::size_t count,
             const std::function<void(std::size_t)> &body);

  private:
    /** @param seen the batch generation current at spawn time */
    void workerLoop(const std::stop_token &stop, std::uint64_t seen);

    unsigned size_;
    std::mutex batchMutex_; ///< serializes run() callers and spawning
    std::mutex mutex_;
    std::condition_variable_any cvWork_;
    std::condition_variable cvDone_;
    const std::function<void(std::size_t)> *body_ = nullptr;
    std::size_t count_ = 0;
    std::atomic<std::size_t> next_{0};
    std::size_t active_ = 0;
    std::uint64_t generation_ = 0;
    /** Declared last: joins (via stop token) before members die. */
    std::vector<std::jthread> threads_;
};

/**
 * Evaluation of sweep points, plus the pool for DRAM fan-out. One
 * engine (usually the process-wide `global()` instance) is shared by
 * calibration, benches, the explorers and the DRAM point runner.
 */
class SweepEngine
{
  public:
    /**
     * @param jobs total worker count including the calling thread;
     *        0 = automatic (PCCS_JOBS env var, else
     *        hardware_concurrency), 1 = serial fallback.
     */
    explicit SweepEngine(unsigned jobs = 0);

    /** @return the effective job count (>= 1). */
    unsigned jobs() const { return jobs_; }

    /**
     * Achieved relative speed (%) of one point:
     * `sim.relativeSpeedUnderPressure(pu, kernel, external)`.
     */
    double evaluate(const soc::SocSimulator &sim, std::size_t pu_index,
                    const soc::KernelProfile &kernel,
                    GBps external) const;

    /**
     * Evaluate all points on `sim`, in order, on the calling thread;
     * result[i] is point i's relative speed, bit-equal to evaluate().
     * A run is consecutive points on one PU whose kernels have equal
     * intensity and locality (the fields the evaluation reads); each
     * maximal block of consecutive runs with one PU and equal pressure
     * sequences is one `SocSimulator::relativeSpeedGrid` call. So a
     * kernels x ladder sweep is one grid, and any other order falls
     * back to smaller grids.
     */
    std::vector<double>
    evaluateBatch(const soc::SocSimulator &sim,
                  const std::vector<EvalPoint> &points) const;

    /** Standalone profile of a kernel on a PU: `sim.profile(...)`. */
    soc::StandaloneProfile profile(const soc::SocSimulator &sim,
                                   std::size_t pu_index,
                                   const soc::KernelProfile &kernel) const;

    /**
     * Deterministic parallel loop over [0, count) on the engine's
     * pool, for independent DRAM simulations.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &body);

    struct EmptyCache
    {
        CacheStats stats() const { return {}; }
        std::size_t size() const { return 0; }
    };

    /**
     * Always-empty cache view: the engine keeps no memo. It exists
     * because the end-to-end benchmark harness (perfbench/) reads
     * these counters.
     */
    EmptyCache cache() const { return {}; }

    /**
     * The process-wide engine. Created on first use, sized from
     * PCCS_JOBS / hardware_concurrency at that moment, and never
     * destroyed, so a process exiting from any thread (or from a
     * forked child that has no pool threads) never joins its workers.
     */
    static SweepEngine &global();

  private:
    unsigned jobs_;
    ThreadPool pool_;
};

} // namespace pccs::runner

#endif // PCCS_RUNNER_SWEEP_ENGINE_HH

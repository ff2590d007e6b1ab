#include "sweep_engine.hh"

#include <cstdlib>
#include <string>

#include "common/logging.hh"

namespace pccs::runner {

namespace {

/** Resolve the effective job count for jobs=0 (automatic). */
unsigned
resolveJobs(unsigned jobs)
{
    if (jobs > 0)
        return jobs;
    if (const char *env = std::getenv("PCCS_JOBS")) {
        char *end = nullptr;
        const long v = std::strtol(env, &end, 10);
        if (end != env && *end == '\0' && v >= 1 && v <= 1024)
            return static_cast<unsigned>(v);
        warn("ignoring invalid PCCS_JOBS='%s' (want an integer in "
             "[1, 1024])",
             env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

} // namespace

ThreadPool::ThreadPool(unsigned workers)
{
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) {
        threads_.emplace_back(
            [this](std::stop_token stop) { workerLoop(stop); });
    }
}

ThreadPool::~ThreadPool()
{
    // jthread destructors request stop and join; the stop token wakes
    // workers parked on cvWork_.
}

void
ThreadPool::workerLoop(const std::stop_token &stop)
{
    std::uint64_t seen = 0;
    std::unique_lock lock(mutex_);
    while (true) {
        if (!cvWork_.wait(lock, stop,
                          [&] { return generation_ != seen; })) {
            return; // stop requested while idle
        }
        seen = generation_;
        const auto *body = body_;
        const std::size_t count = count_;
        lock.unlock();

        for (std::size_t i; (i = next_.fetch_add(1)) < count;)
            (*body)(i);

        lock.lock();
        if (--active_ == 0)
            cvDone_.notify_all();
    }
}

void
ThreadPool::run(std::size_t count,
                const std::function<void(std::size_t)> &body)
{
    if (threads_.empty() || count <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            body(i);
        return;
    }

    std::lock_guard batch(batchMutex_);
    {
        std::lock_guard lock(mutex_);
        body_ = &body;
        count_ = count;
        next_.store(0, std::memory_order_relaxed);
        active_ = threads_.size();
        ++generation_;
    }
    cvWork_.notify_all();

    // The caller is a worker too.
    for (std::size_t i; (i = next_.fetch_add(1)) < count;)
        body(i);

    std::unique_lock lock(mutex_);
    cvDone_.wait(lock, [&] { return active_ == 0; });
    body_ = nullptr;
}

SweepEngine::SweepEngine(unsigned jobs)
    : jobs_(resolveJobs(jobs)), pool_(jobs_ - 1)
{
}

double
SweepEngine::evaluate(const soc::SocSimulator &sim, std::size_t pu_index,
                      const soc::KernelProfile &kernel,
                      GBps external) const
{
    return sim.relativeSpeedUnderPressure(pu_index, kernel, external);
}

std::vector<double>
SweepEngine::evaluateBatch(const soc::SocSimulator &sim,
                           const std::vector<EvalPoint> &points) const
{
    std::vector<double> results;
    results.reserve(points.size());
    for (const EvalPoint &p : points) {
        results.push_back(sim.relativeSpeedUnderPressure(
            p.puIndex, p.kernel, p.externalBw));
    }
    return results;
}

soc::StandaloneProfile
SweepEngine::profile(const soc::SocSimulator &sim, std::size_t pu_index,
                     const soc::KernelProfile &kernel) const
{
    return sim.profile(pu_index, kernel);
}

void
SweepEngine::parallelFor(std::size_t count,
                         const std::function<void(std::size_t)> &body)
{
    pool_.run(count, body);
}

SweepEngine &
SweepEngine::global()
{
    static SweepEngine &engine = *new SweepEngine;
    return engine;
}

} // namespace pccs::runner

#include "qos.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>

#include "common/logging.hh"
#include "pccs/builder.hh"

namespace pccs::sched {

namespace {

/**
 * Append one kernel's content to a class key (a marker byte for
 * nullopt). The key is an internal map index, so it stores the raw
 * bytes of the three doubles — bit-exact content addressing without
 * the cost of textual float formatting, which otherwise dominates the
 * whole admission decision.
 */
void
appendKernelKey(std::string &key,
                const std::optional<soc::KernelProfile> &kernel)
{
    if (!kernel) {
        key += '\1';
        return;
    }
    key += '\2';
    const double fields[3] = {kernel->intensity, kernel->locality,
                              kernel->workBytes};
    key.append(reinterpret_cast<const char *>(fields),
               sizeof(fields));
}

} // namespace

std::optional<AdmissionPolicy>
admissionPolicyFromName(std::string_view name)
{
    if (name == "strict" || name == "strict-slo")
        return AdmissionPolicy::StrictSlo;
    if (name == "best-effort")
        return AdmissionPolicy::BestEffort;
    if (name == "fairness" || name == "fairness-weighted")
        return AdmissionPolicy::FairnessWeighted;
    return std::nullopt;
}

const char *
admissionPolicyName(AdmissionPolicy policy)
{
    switch (policy) {
    case AdmissionPolicy::StrictSlo:
        return "strict";
    case AdmissionPolicy::BestEffort:
        return "best-effort";
    case AdmissionPolicy::FairnessWeighted:
        return "fairness";
    }
    return "?";
}

const char *
decisionKindName(DecisionKind kind)
{
    switch (kind) {
    case DecisionKind::Admitted:
        return "admitted";
    case DecisionKind::Queued:
        return "queued";
    case DecisionKind::Rejected:
        return "rejected";
    }
    return "?";
}

QosController::QosController(const soc::SocConfig &config,
                             runner::SweepEngine *engine,
                             SchedOptions options)
    : config_(config),
      engine_(engine ? engine : &runner::SweepEngine::global()),
      options_(options), sim_(config_)
{
    PCCS_ASSERT(!config_.pus.empty(), "scheduler needs a populated SoC");
    PCCS_ASSERT(options_.gridSteps >= 1, "gridSteps must be >= 1");
    PCCS_ASSERT(options_.puCapacity >= 1, "puCapacity must be >= 1");

    const std::size_t n = config_.pus.size();
    grids_.resize(n);
    models_.resize(n);
    residents_.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        // The same candidate ladder the explore paths sweep: evenly
        // spaced clocks from 30% of max, with the max itself last.
        const MHz fmax = config_.pus[p].maxFrequency;
        const MHz step = fmax / static_cast<double>(options_.gridSteps);
        for (MHz f = 0.3 * fmax; f < fmax; f += step)
            grids_[p].push_back(f);
        grids_[p].push_back(fmax);
    }
}

const model::PccsModel &
QosController::puModel(std::size_t pu)
{
    PCCS_ASSERT(pu < models_.size(), "bad PU index %zu", pu);
    if (!models_[pu]) {
        models_[pu] = std::make_unique<model::PccsModel>(
            model::buildModel(sim_, pu));
    }
    return *models_[pu];
}

std::size_t
QosController::internClass(const JobRequest &request)
{
    const std::size_t n = config_.pus.size();
    PCCS_ASSERT(request.options.empty() || request.options.size() == n,
                "per-PU options must parallel the PU list");

    std::string &key = keyScratch_;
    key.clear();
    for (std::size_t p = 0; p < n; ++p) {
        if (request.options.empty())
            appendKernelKey(key, request.kernel);
        else
            appendKernelKey(key, request.options[p]);
    }

    const auto it = classIds_.find(key);
    if (it != classIds_.end())
        return it->second;

    KernelClass cls;
    cls.key = key;
    cls.kernels.resize(n);
    for (std::size_t p = 0; p < n; ++p) {
        if (request.options.empty())
            cls.kernels[p] = request.kernel;
        else
            cls.kernels[p] = request.options[p];
    }
    cls.perPu.resize(n);
    classes_.push_back(std::move(cls));
    const std::size_t id = classes_.size() - 1;
    classIds_.emplace(std::move(key), id);
    return id;
}

void
QosController::buildGrid(const soc::KernelProfile &kernel,
                         std::size_t pu, GridCache &cache)
{
    // Stage 1 of DesignExplorer::corunPerformanceGrid, verbatim: the
    // standalone profile of every candidate clock.
    const std::vector<MHz> &grid = grids_[pu];
    const std::size_t n = grid.size();
    cache.demand.resize(n);
    cache.rate.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        soc::SocConfig cfg = config_;
        cfg.pus[pu].frequency = grid[i];
        const soc::SocSimulator sim(std::move(cfg));
        const soc::StandaloneProfile solo =
            engine_->profile(sim, pu, kernel);
        cache.demand[i] = solo.bandwidthDemand;
        cache.rate[i] = solo.rate;
    }
    cache.built = true;
    cache.feasible = true;
}

QosController::GridCache &
QosController::gridCache(std::size_t class_id, std::size_t pu)
{
    KernelClass &cls = classes_[class_id];
    GridCache &cache = cls.perPu[pu];
    if (!cache.built) {
        if (cls.kernels[pu])
            buildGrid(*cls.kernels[pu], pu, cache);
        else
            cache.built = true; // feasible stays false: can't run here
    }
    return cache;
}

bool
QosController::corunPerformanceGrid(const JobRequest &request,
                                    std::size_t pu, GBps external,
                                    std::vector<double> &out)
{
    PCCS_ASSERT(pu < config_.pus.size(), "bad PU index %zu", pu);
    const std::size_t class_id = internClass(request);
    const GridCache &cache = gridCache(class_id, pu);
    if (!cache.feasible)
        return false;

    const std::size_t n = cache.demand.size();
    out.resize(n);
    rsGrid_.resize(n);
    puModel(pu).relativeSpeedBroadcast(cache.demand, external, rsGrid_);
    stats_.modelPoints += n;
    for (std::size_t i = 0; i < n; ++i)
        out[i] = cache.rate[i] * rsGrid_[i] / 100.0;
    return true;
}

QosController::Candidate
QosController::evaluateOn(std::size_t class_id, double slo,
                          std::size_t pu)
{
    Candidate cand;
    if (residents_[pu].size() >= options_.puCapacity)
        return cand;
    const GridCache &cache = gridCache(class_id, pu);
    if (!cache.feasible)
        return cand;

    const double margin = 1.0 + options_.safetyMargin;
    const std::size_t n = cache.demand.size();

    // The whole candidate ladder's slowdowns in one broadcast: the new
    // job's external demand is every resident's summed demand.
    rsGrid_.resize(n);
    puModel(pu).relativeSpeedBroadcast(cache.demand, totalDemand_,
                                       rsGrid_);
    stats_.modelPoints += n;

    const double full_rate = cache.rate.back();
    const auto slowdownAt = [&](std::size_t k) {
        const double perf = cache.rate[k] * rsGrid_[k] / 100.0;
        return perf > 0.0 ? full_rate / perf
                          : std::numeric_limits<double>::infinity();
    };

    // Lowest clock whose own slowdown fits (ties break to the lowest
    // index, like DesignSelection). Co-run performance is monotone
    // non-decreasing in the clock, so the lowest feasible clock also
    // minimizes the new job's demand — the gentlest choice for the
    // residents; if they can't absorb it, no higher clock helps.
    std::size_t k = n;
    for (std::size_t i = 0; i < n; ++i) {
        if (slowdownAt(i) * margin <= slo) {
            k = i;
            break;
        }
    }
    if (k == n) {
        if (options_.policy != AdmissionPolicy::BestEffort)
            return cand;
        k = n - 1; // full clock: minimize the damage, admit anyway
        cand.violatesSlo = true;
    }
    cand.predictedSlowdown = slowdownAt(k);

    double worst_slack = (slo - cand.predictedSlowdown) / slo;
    const GBps x_new = cache.demand[k];

    // Re-check every resident under the raised external demand, one
    // SoA batch per PU (models differ per PU).
    for (std::size_t q = 0; q < residents_.size(); ++q) {
        const std::vector<JobHandle> &res = residents_[q];
        if (res.empty())
            continue;
        resX_.resize(res.size());
        resY_.resize(res.size());
        resRs_.resize(res.size());
        for (std::size_t j = 0; j < res.size(); ++j) {
            const Job *job = jobs_.get(res[j]);
            resX_[j] = job->demand;
            resY_[j] =
                std::max(0.0, totalDemand_ - job->demand) + x_new;
        }
        puModel(q).relativeSpeedBatch(resX_, resY_, resRs_);
        stats_.modelPoints += res.size();
        for (std::size_t j = 0; j < res.size(); ++j) {
            const Job *job = jobs_.get(res[j]);
            const double perf = job->rate * resRs_[j] / 100.0;
            const double slow =
                perf > 0.0 ? job->fullRate / perf
                           : std::numeric_limits<double>::infinity();
            double budget = job->sloSlowdown;
            if (options_.policy == AdmissionPolicy::FairnessWeighted)
                budget *= options_.fairnessSlack;
            if (slow * margin > budget) {
                if (options_.policy != AdmissionPolicy::BestEffort)
                    return cand; // placement breaks a resident's SLO
                cand.violatesSlo = true; // admit anyway, but count it
            }
            worst_slack = std::min(
                worst_slack, (job->sloSlowdown - slow) / job->sloSlowdown);
        }
    }

    cand.found = true;
    cand.puIndex = pu;
    cand.freqIndex = k;
    cand.worstSlack = worst_slack;
    switch (options_.objective) {
    case model::PlacementObjective::MaxMinRelativeSpeed:
        cand.score = worst_slack;
        break;
    case model::PlacementObjective::MinMakespan: {
        const soc::KernelProfile &kernel =
            *classes_[class_id].kernels[pu];
        const double perf = cache.rate[k] * rsGrid_[k] / 100.0;
        cand.score = perf > 0.0
                         ? -(kernel.workBytes / perf)
                         : -std::numeric_limits<double>::infinity();
        break;
    }
    }
    return cand;
}

Decision
QosController::admit(const JobRequest &request, std::size_t class_id,
                     const Candidate &candidate)
{
    const std::size_t pu = candidate.puIndex;
    const GridCache &cache = classes_[class_id].perPu[pu];

    const JobHandle handle = jobs_.acquire();
    Job &job = *jobs_.get(handle);
    job.name = request.name;
    job.classId = class_id;
    job.kernel = *classes_[class_id].kernels[pu];
    job.puIndex = pu;
    job.freqIndex = candidate.freqIndex;
    job.frequencyMhz = grids_[pu][candidate.freqIndex];
    job.demand = cache.demand[candidate.freqIndex];
    job.rate = cache.rate[candidate.freqIndex];
    job.fullRate = cache.rate.back();
    job.sloSlowdown = request.sloSlowdown;
    job.deadlineSeconds = request.deadlineSeconds;
    job.predictedSlowdown = candidate.predictedSlowdown;
    job.seq = nextSeq_++;

    residents_[pu].push_back(handle);
    totalDemand_ += job.demand;
    refreshResidents();

    ++stats_.admitted;
    if (candidate.violatesSlo)
        ++stats_.expectedViolations;

    if (options_.recordEvents) {
        SchedEvent ev;
        ev.kind = SchedEvent::Kind::Admit;
        ev.seq = job.seq;
        ev.puIndex = pu;
        ev.frequencyMhz = job.frequencyMhz;
        ev.kernel = job.kernel;
        ev.demand = job.demand;
        ev.rate = job.rate;
        ev.fullRate = job.fullRate;
        ev.sloSlowdown = job.sloSlowdown;
        events_.push_back(std::move(ev));
    }

    Decision d;
    d.kind = DecisionKind::Admitted;
    d.handle = handle;
    d.puIndex = pu;
    d.frequencyMhz = job.frequencyMhz;
    d.predictedSlowdown = job.predictedSlowdown;
    d.worstSlack = candidate.worstSlack;
    return d;
}

Decision
QosController::decide(const JobRequest &request, std::size_t class_id)
{
    ++stats_.decisions;
    PCCS_ASSERT(request.puIndex < 0 ||
                    static_cast<std::size_t>(request.puIndex) <
                        config_.pus.size(),
                "pinned PU index %d out of range", request.puIndex);

    Candidate best;
    std::size_t at_capacity = 0, considered = 0;
    const std::size_t n = config_.pus.size();
    for (std::size_t p = 0; p < n; ++p) {
        if (request.puIndex >= 0 &&
            p != static_cast<std::size_t>(request.puIndex))
            continue;
        ++considered;
        if (residents_[p].size() >= options_.puCapacity) {
            ++at_capacity;
            continue;
        }
        const Candidate cand =
            evaluateOn(class_id, request.sloSlowdown, p);
        // Strict > keeps the lowest PU index on equal scores.
        if (cand.found && (!best.found || cand.score > best.score))
            best = cand;
    }

    if (best.found)
        return admit(request, class_id, best);

    Decision d;
    d.kind = DecisionKind::Queued;
    d.reason = at_capacity == considered
                   ? "all candidate PUs at capacity"
                   : "no placement keeps every SLO";
    return d;
}

Decision
QosController::submit(const JobRequest &request)
{
    ++stats_.submitted;
    const std::size_t class_id = internClass(request);
    Decision d = decide(request, class_id);
    if (d.kind == DecisionKind::Admitted)
        return d;

    if (queue_.size() >= options_.maxQueued) {
        d.kind = DecisionKind::Rejected;
        d.reason += "; queue full";
        ++stats_.rejected;
        return d;
    }
    queue_.push_back(QueuedJob{request, class_id});
    ++stats_.queued;
    return d;
}

Completion
QosController::complete(JobHandle handle)
{
    Completion result;
    const Job *job = jobs_.get(handle);
    if (job == nullptr)
        return result;
    result.ok = true;
    ++stats_.completed;

    const std::size_t pu = job->puIndex;
    const std::uint64_t seq = job->seq;
    // Clamp: the running sum cancels to -0.0 (or an epsilon below
    // zero) when the last resident departs, and the model rejects
    // negative demands.
    totalDemand_ = std::max(0.0, totalDemand_ - job->demand);
    auto &res = residents_[pu];
    res.erase(std::find(res.begin(), res.end(), handle));
    jobs_.release(handle);

    if (options_.recordEvents) {
        SchedEvent ev;
        ev.kind = SchedEvent::Kind::Complete;
        ev.seq = seq;
        ev.puIndex = pu;
        events_.push_back(std::move(ev));
    }

    refreshResidents();

    // Promote in FIFO order, stopping at the first job that still does
    // not fit — the queue stays a queue, nothing jumps it.
    while (!queue_.empty()) {
        QueuedJob &head = queue_.front();
        Decision d = decide(head.request, head.classId);
        if (d.kind != DecisionKind::Admitted)
            break;
        ++stats_.promoted;
        result.promoted.push_back(std::move(d));
        queue_.pop_front();
    }
    return result;
}

void
QosController::refreshResidents()
{
    for (std::size_t q = 0; q < residents_.size(); ++q) {
        const std::vector<JobHandle> &res = residents_[q];
        if (res.empty())
            continue;
        resX_.resize(res.size());
        resY_.resize(res.size());
        resRs_.resize(res.size());
        for (std::size_t j = 0; j < res.size(); ++j) {
            const Job *job = jobs_.get(res[j]);
            resX_[j] = job->demand;
            // The running sum cancels to -0.0 (or an epsilon below)
            // when the last co-runner departs; the model rejects
            // negative demands, so clamp.
            resY_[j] = std::max(0.0, totalDemand_ - job->demand);
        }
        puModel(q).relativeSpeedBatch(resX_, resY_, resRs_);
        stats_.modelPoints += res.size();
        for (std::size_t j = 0; j < res.size(); ++j) {
            Job *job = jobs_.get(res[j]);
            const double perf = job->rate * resRs_[j] / 100.0;
            job->predictedSlowdown =
                perf > 0.0 ? job->fullRate / perf
                           : std::numeric_limits<double>::infinity();
        }
    }
}

} // namespace pccs::sched

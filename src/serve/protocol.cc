#include "protocol.hh"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <limits>

#include "pccs/builder.hh"
#include "pccs/corun.hh"
#include "pccs/design.hh"
#include "pccs/placement.hh"
#include "runner/run_spec.hh"
#include "sched/qos.hh"
#include "workloads/nn.hh"
#include "workloads/rodinia.hh"

namespace pccs::serve {

void
FrameBuffer::feed(const char *data, std::size_t n)
{
    // Compact the consumed prefix now, while no views are
    // outstanding (feeding invalidates them by contract). Usually
    // the whole buffer was consumed and this is a cheap clear.
    if (pos_ > 0) {
        buf_.erase(0, pos_);
        scanned_ -= pos_;
        pos_ = 0;
    }
    buf_.append(data, n);
}

void
FrameBuffer::reset()
{
    buf_.clear();
    pos_ = 0;
    scanned_ = 0;
    discarding_ = false;
}

std::optional<FrameBuffer::View>
FrameBuffer::nextView()
{
    while (true) {
        const std::size_t from = std::max(scanned_, pos_);
        const std::size_t nl = buf_.find('\n', from);
        if (discarding_) {
            if (nl == std::string::npos) {
                // Consume (but keep until the next feed compacts)
                // the rest of the oversized line.
                pos_ = buf_.size();
                scanned_ = buf_.size();
                return std::nullopt;
            }
            pos_ = nl + 1;
            scanned_ = pos_;
            discarding_ = false;
            continue;
        }
        if (nl == std::string::npos) {
            // Remember how far we scanned so repeated feeds of a long
            // line stay linear.
            scanned_ = buf_.size();
            if (buf_.size() - pos_ > maxFrame_) {
                pos_ = buf_.size();
                discarding_ = true;
                return View{{}, true};
            }
            return std::nullopt;
        }
        if (nl - pos_ > maxFrame_) {
            pos_ = nl + 1;
            scanned_ = pos_;
            return View{{}, true};
        }
        std::string_view text(buf_.data() + pos_, nl - pos_);
        pos_ = nl + 1;
        scanned_ = pos_;
        if (!text.empty() && text.back() == '\r')
            text.remove_suffix(1);
        if (text.empty())
            continue; // tolerate blank lines between frames
        return View{text, false};
    }
}

namespace {

/** A per-request failure; caught per frame, never escapes. */
struct ThrownRequestError
{
    std::string message;
};

[[noreturn]] void
requestError(std::string message)
{
    throw ThrownRequestError{std::move(message)};
}

/** @return the member `key`, or fail the request. */
JsonCursor
field(JsonCursor request, const char *key)
{
    const JsonCursor v = request.find(key);
    if (!v)
        requestError(std::string("missing field '") + key + "'");
    return v;
}

std::string_view
requireString(JsonCursor request, const char *key)
{
    const JsonCursor v = field(request, key);
    if (!v.isString())
        requestError(std::string("field '") + key +
                     "' must be a string");
    return v.asString();
}

double
requireFinite(JsonCursor request, const char *key)
{
    const JsonCursor v = field(request, key);
    if (!v.isNumber() || !std::isfinite(v.asNumber()))
        requestError(std::string("field '") + key +
                     "' must be a finite number");
    return v.asNumber();
}

double
requireNonNegative(JsonCursor request, const char *key)
{
    const double v = requireFinite(request, key);
    if (v < 0.0)
        requestError(std::string("field '") + key +
                     "' must be >= 0");
    return v;
}

/** The program's phase demands: "phases" array, or a lone "demand". */
void
parsePhases(JsonCursor request, std::vector<model::PhaseDemand> &out)
{
    out.clear();
    const JsonCursor phases = request.find("phases");
    if (!phases) {
        out.push_back({requireNonNegative(request, "demand"), 1.0});
        return;
    }
    if (!phases.isArray() || phases.size() == 0)
        requestError("field 'phases' must be a non-empty array");
    out.reserve(phases.size());
    for (const JsonCursor phase : phases) {
        if (!phase.isObject())
            requestError("each phase must be an object with "
                         "'demand' and 'share'");
        const double demand = requireNonNegative(phase, "demand");
        const double share = requireFinite(phase, "share");
        if (share <= 0.0)
            requestError("field 'share' must be > 0");
        out.push_back({demand, share});
    }
}

bool
isRodiniaBenchmark(std::string_view name)
{
    for (const auto &spec : workloads::rodiniaSuite())
        if (spec.name == name)
            return true;
    return false;
}

bool
isDlaWorkload(std::string_view name)
{
    return name == "Resnet-50" || name == "resnet-50" ||
           name == "VGG-19" || name == "vgg-19" ||
           name == "Alexnet" || name == "alexnet";
}

soc::PuKind
puKindByName(std::string_view name)
{
    if (name == "cpu")
        return soc::PuKind::Cpu;
    if (name == "gpu")
        return soc::PuKind::Gpu;
    if (name == "dla")
        return soc::PuKind::Dla;
    requestError("unknown pu '" + std::string(name) +
                 "' (use cpu, gpu, or dla)");
}

double
nowMicros(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

Dispatcher::Dispatcher(ModelRegistry &registry, Metrics &metrics,
                       runner::SweepEngine *engine,
                       DispatchOptions options)
    : registry_(registry), metrics_(metrics),
      engine_(engine != nullptr ? engine
                                : &runner::SweepEngine::global()),
      options_(options)
{
}

Dispatcher::~Dispatcher() = default;

void
Dispatcher::makePredictJob(JsonCursor request, Scratch &scratch,
                           Scratch::Slot &slot)
{
    if (scratch.jobs.size() <= scratch.jobsUsed)
        scratch.jobs.emplace_back();
    PredictJob &job = scratch.jobs[scratch.jobsUsed];
    const std::string_view name = requireString(request, "model");
    job.entry = registry_.find(name);
    if (!job.entry)
        requestError("unknown model '" + std::string(name) + "'");
    job.external = requireNonNegative(request, "external");
    parsePhases(request, job.phases);
    slot.jobIndex = static_cast<int>(scratch.jobsUsed++);
}

void
Dispatcher::appendPredictResult(const PredictJob &job, double rs,
                                std::string &wire)
{
    const model::PccsModel &m = job.entry->model;
    const double slowdown = rs > 0.0 ? 100.0 / rs : 1e9;
    wire += "{\"";
    if (job.phases.size() == 1) {
        const GBps x = job.phases.front().demand;
        wire += "region\":\"";
        runner::appendJsonEscaped(wire, model::regionName(m.classify(x)));
        wire += "\",\"demand\":";
        runner::appendJsonNumber(wire, x);
    } else {
        wire += "phases\":";
        runner::appendJsonNumber(
            wire, static_cast<double>(job.phases.size()));
    }
    wire += ",\"model\":\"";
    runner::appendJsonEscaped(wire, job.entry->name);
    wire += "\",\"version\":";
    runner::appendJsonNumber(wire, static_cast<double>(job.entry->version));
    wire += ",\"external\":";
    runner::appendJsonNumber(wire, job.external);
    wire += ",\"relativeSpeed\":";
    runner::appendJsonNumber(wire, rs);
    wire += ",\"slowdownFactor\":";
    runner::appendJsonNumber(wire, slowdown);
    wire += '}';
}

void
Dispatcher::evaluateJobs(Scratch &scratch)
{
    const std::size_t n = scratch.jobsUsed;
    scratch.rs.assign(n, 0.0);

    // Group the single-phase queries by model snapshot: one batch
    // kernel call per distinct model instead of one scalar virtual
    // call per request.
    scratch.groupEntries.clear();
    for (std::size_t i = 0; i < n; ++i) {
        if (scratch.jobs[i].phases.size() != 1)
            continue;
        const ModelEntry *entry = scratch.jobs[i].entry.get();
        std::size_t g = 0;
        while (g < scratch.groupEntries.size() &&
               scratch.groupEntries[g] != entry)
            ++g;
        if (g == scratch.groupEntries.size()) {
            scratch.groupEntries.push_back(entry);
            if (scratch.groupMembers.size() <
                scratch.groupEntries.size())
                scratch.groupMembers.emplace_back();
            else
                scratch.groupMembers[g].clear();
        }
        scratch.groupMembers[g].push_back(i);
    }
    for (std::size_t g = 0; g < scratch.groupEntries.size(); ++g) {
        const std::vector<std::size_t> &idx =
            scratch.groupMembers[g];
        scratch.gx.assign(idx.size(), 0.0);
        scratch.gy.assign(idx.size(), 0.0);
        scratch.gout.assign(idx.size(), 0.0);
        for (std::size_t j = 0; j < idx.size(); ++j) {
            scratch.gx[j] =
                scratch.jobs[idx[j]].phases.front().demand;
            scratch.gy[j] = scratch.jobs[idx[j]].external;
        }
        scratch.groupEntries[g]->model.relativeSpeedBatch(
            scratch.gx, scratch.gy, scratch.gout);
        for (std::size_t j = 0; j < idx.size(); ++j)
            scratch.rs[idx[j]] = scratch.gout[j];
    }

    // Multi-phase programs aggregate per phase (bit-exact with the
    // scalar protocol; rare next to single-point queries).
    for (std::size_t i = 0; i < n; ++i) {
        if (scratch.jobs[i].phases.size() != 1) {
            scratch.rs[i] = model::predictPiecewise(
                scratch.jobs[i].entry->model,
                scratch.jobs[i].phases, scratch.jobs[i].external);
        }
    }
}

void
Dispatcher::handleFrames(const FrameBuffer::View *frames,
                         std::size_t count, Scratch &scratch,
                         bool *shutdown)
{
    scratch.wire.clear();
    scratch.spans.clear();
    scratch.results.clear();
    if (scratch.spans.capacity() < count)
        scratch.spans.reserve(count);
    if (scratch.slots.size() < count)
        scratch.slots.resize(count);
    scratch.jobsUsed = 0;

    for (std::size_t i = 0; i < count; ++i) {
        Scratch::Slot &s = scratch.slots[i];
        s.start = std::chrono::steady_clock::now();
        s.op = EndpointOp::Frame;
        s.id = {};
        s.resultBegin = s.resultEnd = 0;
        s.error.clear();
        s.jobIndex = -1;
        if (frames[i].oversized) {
            s.error = "frame exceeds the size limit";
            continue;
        }
        handleRequest(frames[i].text, scratch, s, shutdown);
    }

    // One coalesced evaluation pass for the whole drain cycle.
    if (scratch.jobsUsed > 0) {
        metrics_.recordBatch(scratch.jobsUsed);
        evaluateJobs(scratch);
    }

    for (std::size_t i = 0; i < count; ++i) {
        Scratch::Slot &s = scratch.slots[i];
        std::string &w = scratch.wire;
        const std::size_t begin = w.size();
        w += '{';
        if (s.id) {
            w += "\"id\":";
            s.id.dumpTo(w);
            w += ',';
        }
        const bool ok = s.error.empty();
        if (ok) {
            w += "\"ok\":true,\"result\":";
            if (s.jobIndex >= 0) {
                appendPredictResult(
                    scratch.jobs[static_cast<std::size_t>(
                        s.jobIndex)],
                    scratch.rs[static_cast<std::size_t>(s.jobIndex)],
                    w);
            } else if (s.resultEnd > s.resultBegin) {
                w.append(scratch.results, s.resultBegin,
                         s.resultEnd - s.resultBegin);
            } else {
                s.result.dumpTo(w);
            }
        } else {
            w += "\"ok\":false,\"error\":\"";
            runner::appendJsonEscaped(w, s.error);
            w += '"';
        }
        w += "}\n";
        scratch.spans.push_back({begin, w.size() - begin});

        const double micros = nowMicros(s.start);
        if (s.op == EndpointOp::kCount)
            metrics_.recordRequest(std::string_view(s.opOther), ok,
                                   micros);
        else
            metrics_.recordRequest(s.op, ok, micros);
    }
}

void
Dispatcher::handleRequest(std::string_view text, Scratch &scratch,
                          Scratch::Slot &slot, bool *shutdown)
{
    if (!slot.doc.parse(text)) {
        slot.error = "parse error at offset " +
                     std::to_string(slot.doc.errorOffset()) + ": " +
                     slot.doc.error();
        return;
    }
    const JsonCursor request = slot.doc.root();
    if (!request.isObject()) {
        slot.error = "request must be a JSON object";
        return;
    }
    slot.id = request.find("id");
    const JsonCursor op = request.find("op");
    if (!op || !op.isString()) {
        slot.error = "missing string field 'op'";
        return;
    }
    slot.op = endpointOpFromName(op.asString());
    if (slot.op == EndpointOp::kCount)
        slot.opOther = op.asString();
    std::string &results = scratch.results;
    slot.resultBegin = results.size();
    try {
        execute(request, scratch, slot, shutdown);
    } catch (const ThrownRequestError &e) {
        results.resize(slot.resultBegin);
        slot.error = e.message;
    }
    slot.resultEnd = results.size();
}

void
Dispatcher::execute(JsonCursor request, Scratch &scratch,
                    Scratch::Slot &slot, bool *shutdown)
{
    switch (slot.op) {
      case EndpointOp::Predict:
        return makePredictJob(request, scratch, slot);
      case EndpointOp::Schedule:
        return doSchedule(request, scratch.results);
      case EndpointOp::Complete:
        return doComplete(request, scratch.results);
      case EndpointOp::SchedStats:
        return doSchedStats(request, scratch.results);
      case EndpointOp::Health:
        slot.result = doHealth();
        return;
      case EndpointOp::Stats:
        slot.result = doStats();
        return;
      case EndpointOp::Reload:
        slot.result = doReload(request);
        return;
      case EndpointOp::Corun:
        slot.result = doCorun(request);
        return;
      case EndpointOp::Place:
        slot.result = doPlace(request);
        return;
      case EndpointOp::Explore:
        slot.result = doExplore(request);
        return;
      case EndpointOp::Shutdown:
        if (shutdown != nullptr)
            *shutdown = true;
        slot.result = Json::object();
        slot.result.set("stopping", true);
        return;
      case EndpointOp::Frame:
      case EndpointOp::kCount:
        break;
    }
    requestError("unknown op '" +
                 std::string(request.find("op").asString()) + "'");
}

Json
Dispatcher::doCorun(JsonCursor request)
{
    const JsonCursor entries = field(request, "entries");
    if (!entries.isArray() || entries.size() == 0)
        requestError("field 'entries' must be a non-empty array");

    std::vector<std::shared_ptr<const ModelEntry>> held;
    std::vector<model::CorunInput> inputs;
    Json names = Json::array();
    for (const JsonCursor entry : entries) {
        if (!entry.isObject())
            requestError("each corun entry must be an object");
        const std::string name(requireString(entry, "model"));
        auto snapshot = registry_.find(name);
        if (!snapshot)
            requestError("unknown model '" + name + "'");
        model::CorunInput input;
        input.model = &snapshot->model;
        parsePhases(entry, input.phases);
        held.push_back(std::move(snapshot));
        inputs.push_back(std::move(input));
        names.push(name);
    }

    model::CorunPredictOptions opts;
    if (request.find("refine")) {
        const double n = requireNonNegative(request, "refine");
        opts.refinementIterations = static_cast<unsigned>(n);
    }
    if (request.find("damping")) {
        opts.damping = requireFinite(request, "damping");
        if (opts.damping <= 0.0 || opts.damping > 1.0)
            requestError("field 'damping' must be in (0, 1]");
    }

    const std::vector<double> speeds =
        model::predictCorun(inputs, opts);
    Json rs = Json::array();
    Json slowdown = Json::array();
    for (double s : speeds) {
        rs.push(s);
        slowdown.push(s > 0.0 ? 100.0 / s : 1e9);
    }
    Json result = Json::object();
    result.set("models", std::move(names));
    result.set("relativeSpeed", std::move(rs));
    result.set("slowdownFactor", std::move(slowdown));
    return result;
}

Json
Dispatcher::doPlace(JsonCursor request)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));

    const JsonCursor taskList = field(request, "tasks");
    if (!taskList.isArray() || taskList.size() == 0)
        requestError("field 'tasks' must be a non-empty array");
    if (taskList.size() > bundle.config.pus.size())
        requestError("more tasks than PUs on that SoC");

    std::vector<model::PlacementTask> tasks;
    for (const JsonCursor item : taskList) {
        std::string bench, nn;
        if (item.isString()) {
            bench = item.asString();
        } else if (item.isObject()) {
            if (const JsonCursor b = item.find("bench"))
                bench = b.asString();
            else if (const JsonCursor n = item.find("nn"))
                nn = n.asString();
        }
        model::PlacementTask task;
        if (!bench.empty()) {
            if (!isRodiniaBenchmark(bench))
                requestError("unknown benchmark '" + bench + "'");
            task.name = bench;
            for (const auto &pu : bundle.config.pus) {
                if (pu.kind == soc::PuKind::Dla) {
                    task.options.push_back({});
                } else {
                    task.options.push_back(
                        soc::PhasedWorkload::single(
                            workloads::rodiniaKernel(bench,
                                                     pu.kind)));
                }
            }
        } else if (!nn.empty()) {
            if (!isDlaWorkload(nn))
                requestError("unknown DLA workload '" + nn + "'");
            task.name = nn;
            for (const auto &pu : bundle.config.pus) {
                if (pu.kind == soc::PuKind::Dla)
                    task.options.push_back(
                        workloads::dlaWorkload(nn));
                else
                    task.options.push_back({});
            }
        } else {
            requestError("each task must be a benchmark name, "
                         "{\"bench\": ...}, or {\"nn\": ...}");
        }
        tasks.push_back(std::move(task));
    }

    model::PlacementObjective objective =
        model::PlacementObjective::MaxMinRelativeSpeed;
    if (const JsonCursor o = request.find("objective")) {
        if (o.asString() == "makespan")
            objective = model::PlacementObjective::MinMakespan;
        else if (o.asString() != "maxmin")
            requestError("field 'objective' must be 'maxmin' or "
                         "'makespan'");
    }

    std::vector<const model::SlowdownPredictor *> models;
    for (std::size_t p = 0; p < bundle.config.pus.size(); ++p)
        models.push_back(&puModel(bundle, p));

    const auto choices = model::enumeratePlacements(
        *bundle.sim, models, tasks, objective);
    if (choices.empty())
        requestError("no feasible placement for those tasks");
    const model::PlacementChoice &best = choices.front();

    Json assignment = Json::array();
    for (std::size_t t = 0; t < tasks.size(); ++t) {
        Json a = Json::object();
        a.set("task", tasks[t].name);
        a.set("pu", best.puAssignment[t]);
        a.set("puName",
              bundle.config.pus[best.puAssignment[t]].name);
        assignment.push(std::move(a));
    }
    Json rs = Json::array();
    for (double s : best.relativeSpeed)
        rs.push(s);
    Json seconds = Json::array();
    for (double s : best.corunSeconds)
        seconds.push(s);

    Json result = Json::object();
    result.set("assignment", std::move(assignment));
    result.set("relativeSpeed", std::move(rs));
    result.set("corunSeconds", std::move(seconds));
    result.set("score", best.score);
    result.set("choicesConsidered", choices.size());
    return result;
}

Json
Dispatcher::doExplore(JsonCursor request)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));

    const soc::PuKind kind =
        puKindByName(requireString(request, "pu"));
    const int pu = bundle.config.puIndex(kind);
    if (pu < 0)
        requestError("that SoC has no such PU");
    if (kind == soc::PuKind::Dla)
        requestError("explore supports cpu and gpu kernels");
    const std::string bench(requireString(request, "bench"));
    if (!isRodiniaBenchmark(bench))
        requestError("unknown benchmark '" + bench + "'");
    const double external = requireNonNegative(request, "external");
    const double allowed = requireNonNegative(request, "allowed");

    const std::size_t pi = static_cast<std::size_t>(pu);
    const soc::KernelProfile kernel =
        workloads::rodiniaKernel(bench, kind);
    const model::PccsModel &m = puModel(bundle, pi);
    const model::DesignExplorer explorer(bundle.config, engine_);

    std::vector<MHz> grid;
    const double fmax = bundle.config.pus[pi].maxFrequency;
    const unsigned steps = std::max(2u, options_.exploreGridSteps);
    for (double f = 0.3 * fmax; f < fmax; f += fmax / steps)
        grid.push_back(f);
    grid.push_back(fmax);

    const model::DesignSelection sel = explorer.selectFrequency(
        pi, kernel, external, allowed, m, grid);

    Json result = Json::object();
    result.set("bench", bench);
    result.set("selectedMhz", sel.value);
    result.set("maxMhz", fmax);
    result.set("predictedPerformance", sel.predictedPerformance);
    result.set("referencePerformance", sel.referencePerformance);
    result.set("performanceRatio",
               sel.referencePerformance > 0.0
                   ? sel.predictedPerformance /
                         sel.referencePerformance
                   : 0.0);
    return result;
}

Json
Dispatcher::doReload(JsonCursor request)
{
    const std::string name(requireString(request, "model"));
    std::string path;
    if (request.find("path"))
        path = requireString(request, "path");
    const ModelRegistry::Reloaded outcome =
        registry_.reload(name, path);
    if (!outcome.ok)
        requestError(outcome.error);
    Json result = Json::object();
    result.set("model", name);
    result.set("version", outcome.version);
    if (auto entry = registry_.find(name))
        result.set("source", entry->source);
    return result;
}

Json
Dispatcher::doStats() const
{
    Json stats = metrics_.toJson();
    Json models = Json::array();
    for (const auto &entry : registry_.list()) {
        Json m = Json::object();
        m.set("name", entry->name);
        m.set("version", entry->version);
        m.set("source", entry->source);
        models.push(std::move(m));
    }
    stats.set("models", std::move(models));
    return stats;
}

Json
Dispatcher::doHealth() const
{
    Json result = Json::object();
    result.set("status", "ok");
    result.set("uptimeSeconds", metrics_.uptimeSeconds());
    result.set("models", registry_.size());
    result.set("protocol", 1);
    return result;
}

namespace {

/**
 * Job handles travel as decimal strings: a handle packs a generation
 * in its high 32 bits, so large values would lose low bits in a JSON
 * double. Numeric input is accepted for small handles (exact
 * integers below 2^53); the string form is always exact.
 */
sched::JobHandle
parseJobHandle(JsonCursor v)
{
    if (v.isString()) {
        const std::string_view s = v.asString();
        if (s.empty() || s.size() > 20 ||
            s.find_first_not_of("0123456789") != std::string_view::npos)
            requestError("field 'job' must be a decimal job handle");
        // Saturates on overflow, as strtoull does.
        sched::JobHandle handle = 0;
        if (std::from_chars(s.data(), s.data() + s.size(), handle).ec !=
            std::errc())
            return std::numeric_limits<sched::JobHandle>::max();
        return handle;
    }
    if (v.isNumber()) {
        const double n = v.asNumber();
        if (!(n >= 0.0) || n != std::floor(n) || n > 9.0e15)
            requestError("field 'job' must be a decimal job handle "
                         "(string form is exact)");
        return static_cast<sched::JobHandle>(n);
    }
    requestError("field 'job' must be a decimal job handle");
}

/** Append `,"key":` and a number. */
void
appendNumberMember(std::string &out, std::string_view key, double v)
{
    out += ",\"";
    out += key;
    out += "\":";
    runner::appendJsonNumber(out, v);
}

/** Append one scheduler decision as its wire object. */
void
appendDecision(std::string &out, const sched::Decision &d,
               const soc::SocConfig &config)
{
    out += "{\"decision\":\"";
    runner::appendJsonEscaped(out, sched::decisionKindName(d.kind));
    if (d.kind != sched::DecisionKind::Admitted) {
        out += "\",\"reason\":\"";
        runner::appendJsonEscaped(out, d.reason);
        out += "\"}";
        return;
    }
    // The handle as an exact decimal string (see parseJobHandle).
    char digits[24];
    const auto printed =
        std::to_chars(digits, digits + sizeof digits, d.handle);
    out += "\",\"job\":\"";
    out.append(digits, printed.ptr);
    out += '"';
    appendNumberMember(out, "pu", static_cast<double>(d.puIndex));
    out += ",\"puName\":\"";
    runner::appendJsonEscaped(out, config.pus[d.puIndex].name);
    out += '"';
    appendNumberMember(out, "frequencyMhz", d.frequencyMhz);
    appendNumberMember(out, "predictedSlowdown", d.predictedSlowdown);
    appendNumberMember(out, "worstSlack", d.worstSlack);
    out += '}';
}

sched::AdmissionPolicy
parsePolicy(JsonCursor request)
{
    const std::string_view name = requireString(request, "policy");
    const std::optional<sched::AdmissionPolicy> policy =
        sched::admissionPolicyFromName(name);
    if (!policy)
        requestError("unknown policy '" + std::string(name) +
                     "' (use strict, best-effort, or fairness)");
    return *policy;
}

} // namespace

void
Dispatcher::doSchedule(JsonCursor request, std::string &out)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));

    if (bundle.sched && request.find("policy") &&
        parsePolicy(request) != bundle.sched->options().policy) {
        requestError(
            std::string("scheduler policy is fixed at '") +
            sched::admissionPolicyName(
                bundle.sched->options().policy) +
            "' for this SoC");
    }

    sched::JobRequest job;
    if (request.find("name"))
        job.name = requireString(request, "name");
    job.sloSlowdown = requireFinite(request, "slo");
    if (job.sloSlowdown < 1.0)
        requestError("field 'slo' must be >= 1");
    if (request.find("deadline"))
        job.deadlineSeconds = requireNonNegative(request, "deadline");
    if (request.find("pu")) {
        const soc::PuKind kind =
            puKindByName(requireString(request, "pu"));
        const int pi = bundle.config.puIndex(kind);
        if (pi < 0)
            requestError("that SoC has no such PU");
        job.puIndex = pi;
    }

    if (request.find("bench")) {
        const std::string bench(requireString(request, "bench"));
        if (!isRodiniaBenchmark(bench))
            requestError("unknown benchmark '" + bench + "'");
        if (job.name.empty())
            job.name = bench;
        for (const auto &pu : bundle.config.pus) {
            if (pu.kind == soc::PuKind::Dla)
                job.options.emplace_back(std::nullopt);
            else
                job.options.emplace_back(
                    workloads::rodiniaKernel(bench, pu.kind));
        }
    } else {
        const JsonCursor k = field(request, "kernel");
        if (!k.isObject())
            requestError("field 'kernel' must be an object");
        job.kernel.name = job.name;
        job.kernel.intensity = requireNonNegative(k, "intensity");
        job.kernel.locality = requireFinite(k, "locality");
        if (job.kernel.locality < 0.0 || job.kernel.locality > 1.0)
            requestError("field 'locality' must be in [0, 1]");
        if (k.find("workBytes")) {
            job.kernel.workBytes = requireFinite(k, "workBytes");
            if (job.kernel.workBytes <= 0.0)
                requestError("field 'workBytes' must be > 0");
        }
    }

    // Create the controller only for a fully validated request, so a
    // malformed frame can never fix the SoC's admission policy.
    if (!bundle.sched) {
        sched::SchedOptions opts;
        // No serve op replays the admit/complete log, and it would
        // grow by two events per job for the server's lifetime.
        opts.recordEvents = false;
        if (request.find("policy"))
            opts.policy = parsePolicy(request);
        if (request.find("margin"))
            opts.safetyMargin = requireNonNegative(request, "margin");
        bundle.sched = std::make_unique<sched::QosController>(
            bundle.config, engine_, opts);
    }
    appendDecision(out, bundle.sched->submit(job), bundle.config);
}

void
Dispatcher::doComplete(JsonCursor request, std::string &out)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));
    if (!bundle.sched)
        requestError("no scheduler on that SoC "
                     "(nothing scheduled yet)");
    const sched::JobHandle handle =
        parseJobHandle(field(request, "job"));
    const sched::Completion c = bundle.sched->complete(handle);
    if (!c.ok)
        requestError("stale or unknown job handle");
    out += "{\"completed\":true,\"promoted\":[";
    for (std::size_t i = 0; i < c.promoted.size(); ++i) {
        if (i > 0)
            out += ',';
        appendDecision(out, c.promoted[i], bundle.config);
    }
    out += "]}";
}

void
Dispatcher::doSchedStats(JsonCursor request, std::string &out)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));
    if (!bundle.sched) {
        out += "{\"scheduler\":false}";
        return;
    }
    const sched::QosController &ctl = *bundle.sched;
    out += "{\"scheduler\":true,\"policy\":\"";
    runner::appendJsonEscaped(
        out, sched::admissionPolicyName(ctl.options().policy));
    const sched::SchedStats &st = ctl.stats();
    out += "\",\"counters\":{\"submitted\":";
    runner::appendJsonNumber(out, static_cast<double>(st.submitted));
    appendNumberMember(out, "admitted", static_cast<double>(st.admitted));
    appendNumberMember(out, "queued", static_cast<double>(st.queued));
    appendNumberMember(out, "rejected", static_cast<double>(st.rejected));
    appendNumberMember(out, "completed",
                       static_cast<double>(st.completed));
    appendNumberMember(out, "promoted", static_cast<double>(st.promoted));
    appendNumberMember(out, "decisions",
                       static_cast<double>(st.decisions));
    appendNumberMember(out, "modelPoints",
                       static_cast<double>(st.modelPoints));
    appendNumberMember(out, "expectedViolations",
                       static_cast<double>(st.expectedViolations));
    out += '}';
    appendNumberMember(out, "resident",
                       static_cast<double>(ctl.residentCount()));
    appendNumberMember(out, "queued",
                       static_cast<double>(ctl.queuedCount()));
    appendNumberMember(out, "totalDemandGBps", ctl.totalDemand());
    out += ",\"pus\":[";
    for (std::size_t p = 0; p < bundle.config.pus.size(); ++p) {
        out += p > 0 ? ",{\"name\":\"" : "{\"name\":\"";
        runner::appendJsonEscaped(out, bundle.config.pus[p].name);
        out += '"';
        appendNumberMember(out, "resident",
                           static_cast<double>(ctl.residents(p).size()));
        out += '}';
    }
    out += "]}";
}

Dispatcher::SocBundle &
Dispatcher::socBundle(std::string_view soc_name)
{
    auto it = socs_.find(soc_name);
    if (it != socs_.end())
        return *it->second;

    soc::SocConfig config;
    if (soc_name == "xavier")
        config = soc::xavierLike();
    else if (soc_name == "snapdragon")
        config = soc::snapdragonLike();
    else
        requestError("unknown soc '" + std::string(soc_name) +
                     "' (use xavier or snapdragon)");

    auto bundle = std::make_unique<SocBundle>();
    bundle->config = config;
    bundle->sim = std::make_unique<soc::SocSimulator>(config);
    bundle->models.resize(config.pus.size());
    return *socs_.emplace(std::string(soc_name), std::move(bundle))
                .first->second;
}

const model::PccsModel &
Dispatcher::puModel(SocBundle &bundle, std::size_t pu_index)
{
    if (!bundle.models[pu_index]) {
        bundle.models[pu_index] =
            std::make_unique<model::PccsModel>(
                model::buildModel(*bundle.sim, pu_index));
    }
    return *bundle.models[pu_index];
}

} // namespace pccs::serve

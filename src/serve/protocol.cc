#include "protocol.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

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

std::optional<FrameBuffer::Frame>
FrameBuffer::next()
{
    std::optional<View> v = nextView();
    if (!v)
        return std::nullopt;
    return Frame{std::string(v->text), v->oversized};
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
const Json &
field(const Json &request, const char *key)
{
    const Json *v = request.find(key);
    if (v == nullptr)
        requestError(std::string("missing field '") + key + "'");
    return *v;
}

std::string
requireString(const Json &request, const char *key)
{
    const Json &v = field(request, key);
    if (!v.isString())
        requestError(std::string("field '") + key +
                     "' must be a string");
    return v.asString();
}

double
requireFinite(const Json &request, const char *key)
{
    const Json &v = field(request, key);
    if (!v.isNumber() || !std::isfinite(v.asNumber()))
        requestError(std::string("field '") + key +
                     "' must be a finite number");
    return v.asNumber();
}

double
requireNonNegative(const Json &request, const char *key)
{
    const double v = requireFinite(request, key);
    if (v < 0.0)
        requestError(std::string("field '") + key +
                     "' must be >= 0");
    return v;
}

/** The program's phase demands: "phases" array, or a lone "demand". */
std::vector<model::PhaseDemand>
parsePhases(const Json &request)
{
    const Json *phases = request.find("phases");
    if (phases == nullptr)
        return {{requireNonNegative(request, "demand"), 1.0}};
    if (!phases->isArray() || phases->asArray().empty())
        requestError("field 'phases' must be a non-empty array");
    std::vector<model::PhaseDemand> out;
    out.reserve(phases->asArray().size());
    for (const Json &phase : phases->asArray()) {
        if (!phase.isObject())
            requestError("each phase must be an object with "
                         "'demand' and 'share'");
        const double demand = requireNonNegative(phase, "demand");
        const double share = requireFinite(phase, "share");
        if (share <= 0.0)
            requestError("field 'share' must be > 0");
        out.push_back({demand, share});
    }
    return out;
}

bool
isRodiniaBenchmark(const std::string &name)
{
    for (const auto &spec : workloads::rodiniaSuite())
        if (spec.name == name)
            return true;
    return false;
}

bool
isDlaWorkload(const std::string &name)
{
    return name == "Resnet-50" || name == "resnet-50" ||
           name == "VGG-19" || name == "vgg-19" ||
           name == "Alexnet" || name == "alexnet";
}

soc::PuKind
puKindByName(const std::string &name)
{
    if (name == "cpu")
        return soc::PuKind::Cpu;
    if (name == "gpu")
        return soc::PuKind::Gpu;
    if (name == "dla")
        return soc::PuKind::Dla;
    requestError("unknown pu '" + name +
                 "' (use cpu, gpu, or dla)");
}

double
nowMicros(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Append `v` rendered exactly like runner::jsonNumber, without
 *  materializing a std::string (the %.17g worst case overflows SSO). */
void
appendNumber(std::string &out, double v)
{
    if (!std::isfinite(v)) {
        out += "null"; // JSON has no NaN/Inf
        return;
    }
    char buf[40];
    const int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
    out.append(buf, n > 0 ? static_cast<std::size_t>(n) : 0);
}

/** Append `s` escaped exactly like runner::jsonEscape. */
void
appendEscaped(std::string &out, std::string_view s)
{
    for (const char raw : s) {
        const unsigned char c = static_cast<unsigned char>(raw);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += raw;
            }
        }
    }
}

/**
 * Cursor of the fast predict scanner. Whitespace and number rules
 * mirror the strict Json parser exactly: anything the scanner
 * accepts, the generic parser would accept with the same meaning —
 * and anything suspicious makes the scanner bail so the generic
 * parser produces its (byte-identical) diagnostic.
 */
struct FastScan
{
    std::string_view text;
    std::size_t pos = 0;

    void skipWs()
    {
        while (pos < text.size()) {
            const char c = text[pos];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos;
        }
    }

    bool eat(char c)
    {
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    /** A string with no escapes or control bytes (view into text). */
    bool scanSimpleString(std::string_view &out)
    {
        if (!eat('"'))
            return false;
        const std::size_t start = pos;
        while (pos < text.size()) {
            const unsigned char c =
                static_cast<unsigned char>(text[pos]);
            if (c == '"') {
                out = text.substr(start, pos - start);
                ++pos;
                return true;
            }
            if (c == '\\' || c < 0x20)
                return false; // escapes and errors: generic path
            ++pos;
        }
        return false;
    }

    /** RFC 8259 number, same grammar as Parser::parseNumber. */
    bool scanNumber(double &out)
    {
        const std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        if (pos >= text.size() || !isDigit(text[pos]))
            return false;
        if (text[pos] == '0') {
            ++pos;
        } else {
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
        }
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (pos >= text.size() || !isDigit(text[pos]))
                return false;
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() || !isDigit(text[pos]))
                return false;
            while (pos < text.size() && isDigit(text[pos]))
                ++pos;
        }
        if (pos < text.size() && isDigit(text[pos]))
            return false; // a leading zero: generic rejects it
        const std::size_t len = pos - start;
        char buf[64];
        if (len >= sizeof(buf))
            return false; // absurd token: let the generic path pay
        std::memcpy(buf, text.data() + start, len);
        buf[len] = '\0';
        out = std::strtod(buf, nullptr);
        return true;
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }
};

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

bool
Dispatcher::tryFastPredict(std::string_view text, Scratch &scratch,
                           Scratch::Slot &slot)
{
    FastScan sc{text};
    sc.skipWs();
    if (!sc.eat('{'))
        return false;
    sc.skipWs();
    if (sc.pos < text.size() && text[sc.pos] == '}')
        return false; // empty object: generic emits "missing op"

    bool haveOp = false, haveModel = false, haveDemand = false,
         haveExternal = false, haveId = false;
    std::string_view modelName;
    double demand = 0.0, external = 0.0, idNumber = 0.0;

    while (true) {
        sc.skipWs();
        std::string_view key;
        if (!sc.scanSimpleString(key))
            return false;
        sc.skipWs();
        if (!sc.eat(':'))
            return false;
        sc.skipWs();
        if (key == "op") {
            std::string_view v;
            if (haveOp || !sc.scanSimpleString(v) || v != "predict")
                return false;
            haveOp = true;
        } else if (key == "model") {
            if (haveModel || !sc.scanSimpleString(modelName))
                return false;
            haveModel = true;
        } else if (key == "demand") {
            if (haveDemand || !sc.scanNumber(demand))
                return false;
            haveDemand = true;
        } else if (key == "external") {
            if (haveExternal || !sc.scanNumber(external))
                return false;
            haveExternal = true;
        } else if (key == "id") {
            // Only numeric ids take the fast path; anything else
            // (strings, null, objects) falls back to the generic
            // parser, which echoes arbitrary Json ids.
            if (haveId || !sc.scanNumber(idNumber))
                return false;
            haveId = true;
        } else {
            return false; // "phases" and any unknown key
        }
        sc.skipWs();
        if (sc.eat(','))
            continue;
        if (sc.eat('}'))
            break;
        return false;
    }
    sc.skipWs();
    if (sc.pos != text.size())
        return false; // trailing bytes: generic emits the diagnostic
    if (!haveOp || !haveModel || !haveDemand || !haveExternal)
        return false;
    // Semantic bailouts, so every diagnostic ("unknown model",
    // "must be >= 0") comes from the one generic code path.
    if (!(demand >= 0.0) || !std::isfinite(demand))
        return false;
    if (!(external >= 0.0) || !std::isfinite(external))
        return false;
    std::shared_ptr<const ModelEntry> entry =
        registry_.find(modelName);
    if (!entry)
        return false;

    if (scratch.jobs.size() <= scratch.jobsUsed)
        scratch.jobs.emplace_back();
    PredictJob &job = scratch.jobs[scratch.jobsUsed];
    job.entry = std::move(entry);
    job.external = external;
    job.phases.clear();
    job.phases.push_back({demand, 1.0});

    slot.op = EndpointOp::Predict;
    slot.hasId = haveId;
    slot.idIsNumber = haveId;
    slot.idNumber = idNumber;
    slot.jobIndex = static_cast<int>(scratch.jobsUsed++);
    return true;
}

void
Dispatcher::parseGeneric(std::string_view text, Scratch &scratch,
                         Scratch::Slot &slot, bool *shutdown)
{
    JsonParse parsed = parseJson(text);
    if (!parsed.ok()) {
        slot.error = "parse error at offset " +
                     std::to_string(parsed.offset) + ": " +
                     parsed.error;
        return;
    }
    slot.request = std::move(*parsed.value);
    const Json &request = slot.request;
    if (!request.isObject()) {
        slot.error = "request must be a JSON object";
        return;
    }
    if (const Json *id = request.find("id")) {
        slot.hasId = true;
        slot.idValue = id;
    }
    const Json *op = request.find("op");
    if (op == nullptr || !op->isString()) {
        slot.error = "missing string field 'op'";
        return;
    }
    const std::string &opName = op->asString();
    const EndpointOp fixed = endpointOpFromName(opName);
    slot.op = fixed;
    if (fixed == EndpointOp::kCount)
        slot.opOther = opName;
    try {
        if (fixed == EndpointOp::Predict)
            makePredictJob(request, scratch, slot);
        else
            slot.result = execute(opName, request, shutdown);
    } catch (const ThrownRequestError &e) {
        slot.error = e.message;
    }
}

void
Dispatcher::makePredictJob(const Json &request, Scratch &scratch,
                           Scratch::Slot &slot)
{
    if (scratch.jobs.size() <= scratch.jobsUsed)
        scratch.jobs.emplace_back();
    PredictJob &job = scratch.jobs[scratch.jobsUsed];
    const std::string name = requireString(request, "model");
    job.entry = registry_.find(name);
    if (!job.entry)
        requestError("unknown model '" + name + "'");
    job.external = requireNonNegative(request, "external");
    job.phases = parsePhases(request);
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
        appendEscaped(wire, model::regionName(m.classify(x)));
        wire += "\",\"demand\":";
        appendNumber(wire, x);
    } else {
        wire += "phases\":";
        appendNumber(wire,
                     static_cast<double>(job.phases.size()));
    }
    wire += ",\"model\":\"";
    appendEscaped(wire, job.entry->name);
    wire += "\",\"version\":";
    appendNumber(wire, static_cast<double>(job.entry->version));
    wire += ",\"external\":";
    appendNumber(wire, job.external);
    wire += ",\"relativeSpeed\":";
    appendNumber(wire, rs);
    wire += ",\"slowdownFactor\":";
    appendNumber(wire, slowdown);
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
    if (scratch.spans.capacity() < count)
        scratch.spans.reserve(count);
    if (scratch.slots.size() < count)
        scratch.slots.resize(count);
    scratch.jobsUsed = 0;

    for (std::size_t i = 0; i < count; ++i) {
        Scratch::Slot &s = scratch.slots[i];
        s.start = std::chrono::steady_clock::now();
        s.op = EndpointOp::Frame;
        s.hasId = false;
        s.idIsNumber = false;
        s.idValue = nullptr;
        s.error.clear();
        s.jobIndex = -1;
        if (frames[i].oversized) {
            s.error = "frame exceeds the size limit";
            continue;
        }
        if (!tryFastPredict(frames[i].text, scratch, s))
            parseGeneric(frames[i].text, scratch, s, shutdown);
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
        if (s.hasId) {
            w += "\"id\":";
            if (s.idIsNumber)
                appendNumber(w, s.idNumber);
            else if (s.idValue != nullptr)
                s.idValue->dumpTo(w);
            else
                w += "null";
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
            } else {
                s.result.dumpTo(w);
            }
        } else {
            w += "\"ok\":false,\"error\":\"";
            appendEscaped(w, s.error);
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
        // The generic-path id points into s.request; both die
        // together, but don't let a stale pointer outlive the slot's
        // next reuse.
        s.idValue = nullptr;
    }
}

std::vector<std::string>
Dispatcher::handleFrames(const std::vector<FrameBuffer::Frame> &frames,
                         bool *shutdown)
{
    std::vector<FrameBuffer::View> views;
    views.reserve(frames.size());
    for (const FrameBuffer::Frame &frame : frames)
        views.push_back({frame.text, frame.oversized});
    Scratch scratch;
    handleFrames(views.data(), views.size(), scratch, shutdown);
    std::vector<std::string> out;
    out.reserve(frames.size());
    for (const WireSpan &span : scratch.spans) {
        // Drop the trailing newline the wire form carries.
        out.emplace_back(scratch.wire, span.offset, span.length - 1);
    }
    return out;
}

std::string
Dispatcher::handleFrame(const std::string &frame, bool *shutdown)
{
    return handleFrames({FrameBuffer::Frame{frame, false}}, shutdown)
        .front();
}

Json
Dispatcher::execute(const std::string &op, const Json &request,
                    bool *shutdown)
{
    if (op == "health")
        return doHealth();
    if (op == "stats")
        return doStats();
    if (op == "reload")
        return doReload(request);
    if (op == "corun")
        return doCorun(request);
    if (op == "place")
        return doPlace(request);
    if (op == "explore")
        return doExplore(request);
    if (op == "schedule")
        return doSchedule(request);
    if (op == "complete")
        return doComplete(request);
    if (op == "sched_stats")
        return doSchedStats(request);
    if (op == "shutdown") {
        if (shutdown != nullptr)
            *shutdown = true;
        Json result = Json::object();
        result.set("stopping", true);
        return result;
    }
    requestError("unknown op '" + op + "'");
}

Json
Dispatcher::doCorun(const Json &request)
{
    const Json &entries = field(request, "entries");
    if (!entries.isArray() || entries.asArray().empty())
        requestError("field 'entries' must be a non-empty array");

    std::vector<std::shared_ptr<const ModelEntry>> held;
    std::vector<model::CorunInput> inputs;
    Json names = Json::array();
    for (const Json &entry : entries.asArray()) {
        if (!entry.isObject())
            requestError("each corun entry must be an object");
        const std::string name = requireString(entry, "model");
        auto snapshot = registry_.find(name);
        if (!snapshot)
            requestError("unknown model '" + name + "'");
        model::CorunInput input;
        input.model = &snapshot->model;
        input.phases = parsePhases(entry);
        held.push_back(std::move(snapshot));
        inputs.push_back(std::move(input));
        names.push(name);
    }

    model::CorunPredictOptions opts;
    if (request.find("refine") != nullptr) {
        const double n = requireNonNegative(request, "refine");
        opts.refinementIterations = static_cast<unsigned>(n);
    }
    if (request.find("damping") != nullptr) {
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
Dispatcher::doPlace(const Json &request)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));

    const Json &taskList = field(request, "tasks");
    if (!taskList.isArray() || taskList.asArray().empty())
        requestError("field 'tasks' must be a non-empty array");
    if (taskList.asArray().size() > bundle.config.pus.size())
        requestError("more tasks than PUs on that SoC");

    std::vector<model::PlacementTask> tasks;
    for (const Json &item : taskList.asArray()) {
        std::string bench, nn;
        if (item.isString()) {
            bench = item.asString();
        } else if (item.isObject()) {
            if (const Json *b = item.find("bench"))
                bench = b->asString();
            else if (const Json *n = item.find("nn"))
                nn = n->asString();
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
    if (const Json *o = request.find("objective")) {
        if (o->asString() == "makespan")
            objective = model::PlacementObjective::MinMakespan;
        else if (o->asString() != "maxmin")
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
Dispatcher::doExplore(const Json &request)
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
    const std::string bench = requireString(request, "bench");
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
Dispatcher::doReload(const Json &request)
{
    const std::string name = requireString(request, "model");
    std::string path;
    if (request.find("path") != nullptr)
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
parseJobHandle(const Json &v)
{
    if (v.isString()) {
        const std::string &s = v.asString();
        if (s.empty() || s.size() > 20 ||
            s.find_first_not_of("0123456789") != std::string::npos)
            requestError("field 'job' must be a decimal job handle");
        return std::strtoull(s.c_str(), nullptr, 10);
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

/** Render one scheduler decision as its wire object. */
Json
decisionJson(const sched::Decision &d, const soc::SocConfig &config)
{
    Json out = Json::object();
    out.set("decision", sched::decisionKindName(d.kind));
    if (d.kind == sched::DecisionKind::Admitted) {
        out.set("job", std::to_string(d.handle));
        out.set("pu", d.puIndex);
        out.set("puName", config.pus[d.puIndex].name);
        out.set("frequencyMhz", d.frequencyMhz);
        out.set("predictedSlowdown", d.predictedSlowdown);
        out.set("worstSlack", d.worstSlack);
    } else {
        out.set("reason", d.reason);
    }
    return out;
}

sched::AdmissionPolicy
parsePolicy(const Json &request)
{
    const std::string name = requireString(request, "policy");
    const std::optional<sched::AdmissionPolicy> policy =
        sched::admissionPolicyFromName(name);
    if (!policy)
        requestError("unknown policy '" + name +
                     "' (use strict, best-effort, or fairness)");
    return *policy;
}

} // namespace

Json
Dispatcher::doSchedule(const Json &request)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));

    if (bundle.sched && request.find("policy") != nullptr &&
        parsePolicy(request) != bundle.sched->options().policy) {
        requestError(
            std::string("scheduler policy is fixed at '") +
            sched::admissionPolicyName(
                bundle.sched->options().policy) +
            "' for this SoC");
    }

    sched::JobRequest job;
    if (request.find("name") != nullptr)
        job.name = requireString(request, "name");
    job.sloSlowdown = requireFinite(request, "slo");
    if (job.sloSlowdown < 1.0)
        requestError("field 'slo' must be >= 1");
    if (request.find("deadline") != nullptr)
        job.deadlineSeconds = requireNonNegative(request, "deadline");
    if (request.find("pu") != nullptr) {
        const soc::PuKind kind =
            puKindByName(requireString(request, "pu"));
        const int pi = bundle.config.puIndex(kind);
        if (pi < 0)
            requestError("that SoC has no such PU");
        job.puIndex = pi;
    }

    if (request.find("bench") != nullptr) {
        const std::string bench = requireString(request, "bench");
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
        const Json &k = field(request, "kernel");
        if (!k.isObject())
            requestError("field 'kernel' must be an object");
        job.kernel.name = job.name;
        job.kernel.intensity = requireNonNegative(k, "intensity");
        job.kernel.locality = requireFinite(k, "locality");
        if (job.kernel.locality < 0.0 || job.kernel.locality > 1.0)
            requestError("field 'locality' must be in [0, 1]");
        if (k.find("workBytes") != nullptr) {
            job.kernel.workBytes = requireFinite(k, "workBytes");
            if (job.kernel.workBytes <= 0.0)
                requestError("field 'workBytes' must be > 0");
        }
    }

    // Create the controller only for a fully validated request, so a
    // malformed frame can never fix the SoC's admission policy.
    if (!bundle.sched) {
        sched::SchedOptions opts;
        if (request.find("policy") != nullptr)
            opts.policy = parsePolicy(request);
        if (request.find("margin") != nullptr)
            opts.safetyMargin = requireNonNegative(request, "margin");
        bundle.sched = std::make_unique<sched::QosController>(
            bundle.config, engine_, opts);
    }
    return decisionJson(bundle.sched->submit(job), bundle.config);
}

Json
Dispatcher::doComplete(const Json &request)
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
    Json promoted = Json::array();
    for (const sched::Decision &d : c.promoted)
        promoted.push(decisionJson(d, bundle.config));
    Json result = Json::object();
    result.set("completed", true);
    result.set("promoted", std::move(promoted));
    return result;
}

Json
Dispatcher::doSchedStats(const Json &request)
{
    std::lock_guard lock(socMutex_);
    SocBundle &bundle = socBundle(requireString(request, "soc"));
    Json result = Json::object();
    if (!bundle.sched) {
        result.set("scheduler", false);
        return result;
    }
    const sched::QosController &ctl = *bundle.sched;
    result.set("scheduler", true);
    result.set("policy",
               sched::admissionPolicyName(ctl.options().policy));
    const sched::SchedStats &st = ctl.stats();
    Json counters = Json::object();
    counters.set("submitted", st.submitted);
    counters.set("admitted", st.admitted);
    counters.set("queued", st.queued);
    counters.set("rejected", st.rejected);
    counters.set("completed", st.completed);
    counters.set("promoted", st.promoted);
    counters.set("decisions", st.decisions);
    counters.set("modelPoints", st.modelPoints);
    counters.set("expectedViolations", st.expectedViolations);
    result.set("counters", std::move(counters));
    result.set("resident", ctl.residentCount());
    result.set("queued", ctl.queuedCount());
    result.set("totalDemandGBps", ctl.totalDemand());
    Json pus = Json::array();
    for (std::size_t p = 0; p < bundle.config.pus.size(); ++p) {
        Json e = Json::object();
        e.set("name", bundle.config.pus[p].name);
        e.set("resident", ctl.residents(p).size());
        pus.push(std::move(e));
    }
    result.set("pus", std::move(pus));
    return result;
}

Dispatcher::SocBundle &
Dispatcher::socBundle(const std::string &soc_name)
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
        requestError("unknown soc '" + soc_name +
                     "' (use xavier or snapdragon)");

    auto bundle = std::make_unique<SocBundle>();
    bundle->config = config;
    bundle->sim = std::make_unique<soc::SocSimulator>(config);
    bundle->models.resize(config.pus.size());
    return *(socs_[soc_name] = std::move(bundle));
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

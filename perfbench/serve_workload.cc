/**
 * @file
 * serve_mixed: an in-process prediction server on loopback and one
 * closed-loop client connection. The client sends fixed-size bursts of
 * seeded frames — `predict` reads, `schedule`/`complete` writes to the
 * QoS controller, and a periodic `sched_stats` — and sends the next
 * burst only after every response of the previous one arrived. A
 * request's latency runs from the burst's send to its response line.
 *
 * Output check: every response is parsed and compared with the same
 * answer computed in process — predictions with the registry's model
 * (bit for bit), scheduling decisions and counters with a mirror
 * QosController fed the same requests in the same order.
 *
 * Accuracy: predict queries are Rodinia kernels on the Xavier CPU and
 * GPU, so each served prediction (and the Gables prediction for the
 * same query) is scored against the simulated relative speed.
 */

#include <sys/socket.h>
#include <sys/time.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "gables/gables.hh"
#include "pccs/builder.hh"
#include "runner/sweep_engine.hh"
#include "sched/qos.hh"
#include "serve/client.hh"
#include "serve/json.hh"
#include "serve/metrics.hh"
#include "serve/protocol.hh"
#include "serve/registry.hh"
#include "serve/server.hh"
#include "soc/simulator.hh"
#include "workloads.hh"
#include "workloads/rodinia.hh"

namespace perfbench {

using namespace pccs;
using serve::Json;

namespace {

/*
 * The request mix. Where the repository already drives an op, the mix
 * copies that load; the other numbers are assumptions, each with its
 * reason.
 *  - kBurst: the default pipeline depth of bench/serve_throughput.
 *  - kPredictShare (assumption): reads and QoS writes weigh the same,
 *    so a change that speeds one and slows the other shows.
 *  - The write frames follow the arrival/departure process of
 *    bench/sched_throughput: submit with probability kSubmitLoad
 *    (always when no job is resident), else complete a random
 *    resident. 0.3 is the lowest load of its curve (0.3 to 0.97): the
 *    QoS queue stays short, so a pass's cost does not drift with the
 *    queue's length. At 0.5 the queue wandered up to its cap and
 *    seeds differed by a quarter. SLOs are drawn from the same
 *    process's range.
 *  - kStatsEvery (assumption): one monitoring poll per burst.
 */
constexpr unsigned kBurst = 64;
constexpr unsigned kBurstsPerPass = 250;
constexpr double kPredictShare = 0.5;
constexpr double kSubmitLoad = 0.3;
constexpr double kSloMin = 1.1;
constexpr double kSloSpan = 0.9;
constexpr unsigned kStatsEvery = kBurst;
/** One connection is served by one shard. */
constexpr unsigned kShards = 1;
/** A missing response after this long is a failed request. */
constexpr int kRecvTimeoutSeconds = 5;

const char *const kModelNames[2] = {"xavier.cpu", "xavier.gpu"};

/** One predict query with its simulated ground truth. */
struct Query
{
    std::size_t pu = 0; ///< 0 = CPU, 1 = GPU
    GBps demand = 0.0;
    GBps external = 0.0;
    double truth = 0.0; ///< simulated relative speed, %
};

/** A running service: registry, dispatcher, server, and a client. */
struct Service
{
    serve::ModelRegistry registry;
    serve::Metrics metrics;
    std::unique_ptr<serve::Dispatcher> dispatcher;
    std::unique_ptr<serve::Server> server;
    serve::TcpClient client;

    ~Service()
    {
        client.close();
        if (server)
            server->stop();
    }
};

/**
 * What the client expects back for one frame. The server runs a
 * connection's schedule/complete/sched_stats frames in frame order, so
 * the mirror controller answers each as the frame is built.
 */
struct Expect
{
    enum class Op { Predict, Schedule, Complete, SchedStats };
    Op op = Op::Predict;
    std::size_t query = 0;   ///< predict: index into the query table
    std::string bench;       ///< schedule
    double slo = 0.0;        ///< schedule
    sched::JobHandle job = 0; ///< complete
    sched::Decision decision;     ///< schedule: the mirror's answer
    sched::Completion completion; ///< complete: the mirror's answer
    sched::SchedStats stats;      ///< sched_stats: the mirror's counters
};

const char *
opName(Expect::Op op)
{
    switch (op) {
      case Expect::Op::Predict: return "predict";
      case Expect::Op::Schedule: return "schedule";
      case Expect::Op::Complete: return "complete";
      case Expect::Op::SchedStats: return "sched_stats";
    }
    return "?";
}

/** The job the server builds for a `schedule` with `bench`. */
sched::JobRequest
benchJob(const soc::SocConfig &soc, const std::string &bench, double slo)
{
    sched::JobRequest job;
    job.name = bench;
    job.sloSlowdown = slo;
    for (const auto &pu : soc.pus) {
        if (pu.kind == soc::PuKind::Dla)
            job.options.emplace_back(std::nullopt);
        else
            job.options.emplace_back(
                workloads::rodiniaKernel(bench, pu.kind));
    }
    return job;
}

/** Does a wire decision object match an in-process decision? */
bool
sameDecision(const Json &wire, const sched::Decision &d)
{
    const Json *kind = wire.find("decision");
    if (kind == nullptr ||
        kind->asString() != sched::decisionKindName(d.kind))
        return false;
    if (d.kind != sched::DecisionKind::Admitted) {
        const Json *reason = wire.find("reason");
        return reason != nullptr && reason->asString() == d.reason;
    }
    const Json *job = wire.find("job");
    const Json *pu = wire.find("pu");
    const Json *f = wire.find("frequencyMhz");
    const Json *ps = wire.find("predictedSlowdown");
    const Json *ws = wire.find("worstSlack");
    return job != nullptr && job->asString() == std::to_string(d.handle) &&
           pu != nullptr &&
           pu->asNumber(-1) == static_cast<double>(d.puIndex) &&
           f != nullptr && sameBits(f->asNumber(), d.frequencyMhz) &&
           ps != nullptr && sameBits(ps->asNumber(), d.predictedSlowdown) &&
           ws != nullptr && sameBits(ws->asNumber(), d.worstSlack);
}

double
numberAt(const Json &v, std::initializer_list<const char *> path)
{
    const Json *cur = &v;
    for (const char *key : path) {
        cur = cur->find(key);
        if (cur == nullptr)
            return 0.0;
    }
    return cur->asNumber();
}

/** Client-side state of the closed loop. */
class MixedClient
{
  public:
    MixedClient(const RunConfig &cfg, Outcome &out,
                const std::vector<Query> &queries,
                const std::vector<std::string> &benches)
        : out_(out), queries_(queries), benches_(benches),
          rng_(cfg.seed), gables_(soc::xavierLike().memory.peakBandwidth)
    {
    }

    /**
     * Point at a fresh service (null when it failed to start: every
     * later request then counts as failed) and mirror controller.
     */
    void attach(Service *svc, std::unique_ptr<sched::QosController> mirror)
    {
        svc_ = svc;
        broken_ = svc == nullptr;
        mirror_ = std::move(mirror);
        handles_.clear();
    }

    /**
     * Send one burst and check its responses.
     * @param forced when non-empty, the burst's frames (warm-up); a
     *        schedule frame with a bench names that benchmark
     * @return seconds from the send to the last response line
     */
    double burst(const std::vector<Expect> &forced = {});

    /** The server's `stats` answer (one tagged round trip). */
    Json stats();

    const sched::QosController &mirror() const { return *mirror_; }
    double pccsErr() const { return pccsErr_ / std::max(1.0, scored_); }
    double gablesErr() const { return gablesErr_ / std::max(1.0, scored_); }

  private:
    Expect nextFrame(Expect e, std::string &wire);
    void checkResponse(const Expect &e, const std::string &line,
                       std::uint64_t id);

    Outcome &out_;
    const std::vector<Query> &queries_;
    const std::vector<std::string> &benches_;
    Rng rng_;
    gables::GablesModel gables_;
    Service *svc_ = nullptr;
    std::unique_ptr<sched::QosController> mirror_;
    /** Jobs resident on the mirror, not yet sent a complete. */
    std::vector<sched::JobHandle> handles_;
    std::uint64_t nextId_ = 0;
    std::uint64_t frames_ = 0;
    double pccsErr_ = 0.0, gablesErr_ = 0.0, scored_ = 0.0;
    bool broken_ = false;
};

Expect
MixedClient::nextFrame(Expect e, std::string &wire)
{
    char buf[256];
    const std::uint64_t id = nextId_++;
    switch (e.op) {
      case Expect::Op::Predict: {
        e.query = rng_.below(queries_.size());
        const Query &q = queries_[e.query];
        std::snprintf(buf, sizeof buf,
                      "{\"op\":\"predict\",\"id\":%llu,\"model\":\"%s\","
                      "\"demand\":%.17g,\"external\":%.17g}\n",
                      static_cast<unsigned long long>(id),
                      kModelNames[q.pu], q.demand, q.external);
        break;
      }
      case Expect::Op::Schedule:
        if (e.bench.empty())
            e.bench = benches_[rng_.below(benches_.size())];
        e.slo = kSloMin + rng_.uniform() * kSloSpan;
        e.decision =
            mirror_->submit(benchJob(mirror_->config(), e.bench, e.slo));
        if (e.decision.kind == sched::DecisionKind::Admitted)
            handles_.push_back(e.decision.handle);
        std::snprintf(buf, sizeof buf,
                      "{\"op\":\"schedule\",\"id\":%llu,\"soc\":\"xavier\","
                      "\"slo\":%.17g,\"bench\":\"%s\"}\n",
                      static_cast<unsigned long long>(id), e.slo,
                      e.bench.c_str());
        break;
      case Expect::Op::Complete: {
        const std::size_t i =
            handles_.size() > 1 ? rng_.below(handles_.size()) : 0;
        e.job = handles_[i];
        handles_.erase(handles_.begin() + static_cast<std::ptrdiff_t>(i));
        e.completion = mirror_->complete(e.job);
        for (const sched::Decision &d : e.completion.promoted)
            if (d.kind == sched::DecisionKind::Admitted)
                handles_.push_back(d.handle);
        std::snprintf(buf, sizeof buf,
                      "{\"op\":\"complete\",\"id\":%llu,\"soc\":\"xavier\","
                      "\"job\":\"%llu\"}\n",
                      static_cast<unsigned long long>(id),
                      static_cast<unsigned long long>(e.job));
        break;
      }
      case Expect::Op::SchedStats:
        e.stats = mirror_->stats();
        std::snprintf(buf, sizeof buf,
                      "{\"op\":\"sched_stats\",\"id\":%llu,"
                      "\"soc\":\"xavier\"}\n",
                      static_cast<unsigned long long>(id));
        break;
    }
    wire += buf;
    return e;
}

double
MixedClient::burst(const std::vector<Expect> &forced)
{
    const unsigned n = forced.empty() ? kBurst
                                      : static_cast<unsigned>(forced.size());
    if (broken_) {
        out_.attempted += n;
        out_.failed += n;
        return 0.0;
    }

    std::string wire;
    std::vector<Expect> expects;
    for (unsigned i = 0; i < n; ++i) {
        Expect e;
        if (!forced.empty()) {
            e = forced[i];
        } else if (++frames_ % kStatsEvery == 0) {
            e.op = Expect::Op::SchedStats;
        } else if (rng_.uniform() < kPredictShare) {
            e.op = Expect::Op::Predict;
        } else {
            e.op = handles_.empty() || rng_.chance(kSubmitLoad)
                       ? Expect::Op::Schedule
                       : Expect::Op::Complete;
        }
        // Warm-up asks for a complete, which needs a resident job.
        if (e.op == Expect::Op::Complete && handles_.empty())
            e.op = Expect::Op::Predict;
        expects.push_back(nextFrame(std::move(e), wire));
    }
    const std::uint64_t first_id = nextId_ - n;

    Tracer &t = tracer();
    const Tracer::SpanId parent = t.current();
    const Clock::time_point sent = Clock::now();
    std::vector<std::string> lines;
    lines.reserve(n);
    Clock::time_point last = sent;
    if (svc_->client.sendRaw(wire.data(), wire.size())) {
        for (unsigned i = 0; i < n; ++i) {
            std::optional<std::string> line = svc_->client.recvLine();
            if (!line)
                break;
            last = Clock::now();
            out_.opLatencyUs.push_back(
                static_cast<float>(secondsBetween(sent, last) * 1e6));
            t.record(std::string("TcpClient.") + opName(expects[i].op),
                     sent, last, parent);
            lines.push_back(std::move(*line));
        }
    }
    const double seconds = secondsBetween(sent, last);

    for (std::size_t i = 0; i < lines.size(); ++i)
        checkResponse(expects[i], lines[i], first_id + i);
    if (lines.size() < n) {
        broken_ = true;
        out_.attempted += n - lines.size();
        out_.fail("serve_mixed: connection lost or response timed out",
                  n - lines.size());
    }
    return seconds;
}

void
MixedClient::checkResponse(const Expect &e, const std::string &line,
                           std::uint64_t id)
{
    const std::string what =
        std::string("serve_mixed: ") + opName(e.op) + " id " +
        std::to_string(id);
    const serve::JsonParse parsed = serve::parseJson(line);
    const Json *ok = parsed.ok() ? parsed.value->find("ok") : nullptr;
    const Json *rid = parsed.ok() ? parsed.value->find("id") : nullptr;
    const Json *res = parsed.ok() ? parsed.value->find("result") : nullptr;
    if (ok == nullptr || !ok->asBool() || rid == nullptr ||
        rid->asNumber(-1) != static_cast<double>(id) || res == nullptr) {
        out_.check(false, what + ": bad or error response: " + line);
        return;
    }

    switch (e.op) {
      case Expect::Op::Predict: {
        const Query &q = queries_[e.query];
        const auto entry = svc_->registry.find(kModelNames[q.pu]);
        const double want = entry->model.relativeSpeed(q.demand, q.external);
        const Json *rs = res->find("relativeSpeed");
        const bool match = rs != nullptr && sameBits(rs->asNumber(), want);
        if (match) {
            pccsErr_ += std::abs(want - q.truth);
            gablesErr_ += std::abs(
                gables_.relativeSpeed(q.demand, q.external) - q.truth);
            scored_ += 1.0;
        }
        out_.check(match, what + ": prediction differs from the model");
        break;
      }
      case Expect::Op::Schedule:
        out_.check(sameDecision(*res, e.decision),
                   what + ": decision differs from the mirror");
        break;
      case Expect::Op::Complete: {
        const sched::Completion &c = e.completion;
        const Json *done = res->find("completed");
        const Json *promoted = res->find("promoted");
        bool match = c.ok && done != nullptr && done->asBool() &&
                     promoted != nullptr &&
                     promoted->asArray().size() == c.promoted.size();
        for (std::size_t i = 0; match && i < c.promoted.size(); ++i)
            match = sameDecision(promoted->asArray()[i], c.promoted[i]);
        out_.check(match, what + ": completion differs from the mirror");
        break;
      }
      case Expect::Op::SchedStats: {
        const sched::SchedStats &st = e.stats;
        const bool match =
            numberAt(*res, {"counters", "admitted"}) ==
                static_cast<double>(st.admitted) &&
            numberAt(*res, {"counters", "rejected"}) ==
                static_cast<double>(st.rejected) &&
            numberAt(*res, {"counters", "queued"}) ==
                static_cast<double>(st.queued) &&
            numberAt(*res, {"counters", "completed"}) ==
                static_cast<double>(st.completed);
        out_.check(match, what + ": counters differ from the mirror");
        break;
      }
    }
}

Json
MixedClient::stats()
{
    if (broken_)
        return Json::object();
    Json req = Json::object();
    req.set("op", "stats");
    Json resp;
    timed("TcpClient.stats", [&] { resp = svc_->client.request(req); });
    const Json *res = resp.find("result");
    return res != nullptr ? *res : Json::object();
}

} // namespace

Outcome
runServeMixed(const RunConfig &cfg)
{
    Outcome out;
    // The process-wide engine at its shipped size: every hardware
    // thread, counting the caller. The server's QoS controller builds
    // its models on it whatever engine it is handed, so a smaller
    // engine of the benchmark's own would only add a second pool.
    runner::SweepEngine &engine = runner::SweepEngine::global();
    const soc::SocConfig xavier = soc::xavierLike();

    std::vector<Query> queries;
    std::vector<std::string> benches;
    std::unique_ptr<Service> svc;
    MixedClient client(cfg, out, queries, benches);

    // Set-up: calibrate the served models, start the server, connect,
    // and warm every op up (the first schedule of each benchmark
    // builds that kernel class's frequency grids).
    runSetups(kSetups, out, [&](unsigned) {
        svc.reset();
        const soc::SocSimulator sim(xavier);
        queries.clear();
        benches = workloads::gpuBenchmarks();
        std::vector<std::string> per_pu[2] = {workloads::cpuBenchmarks(),
                                              benches};
        svc = std::make_unique<Service>();
        for (std::size_t pu = 0; pu < 2; ++pu) {
            model::PccsModel m = model::buildModel(sim, pu);
            svc->registry.addFromParams(kModelNames[pu], m.params(),
                                        "calibrated:xavier");
            const soc::PuKind kind =
                pu == 0 ? soc::PuKind::Cpu : soc::PuKind::Gpu;
            for (const std::string &b : per_pu[pu]) {
                const soc::KernelProfile k = workloads::rodiniaKernel(b, kind);
                const GBps x = engine.profile(sim, pu, k).bandwidthDemand;
                for (unsigned j = 1; j <= 8; ++j) {
                    const GBps y = 0.73 * xavier.memory.peakBandwidth * j / 8;
                    queries.push_back(
                        {pu, x, y, engine.evaluate(sim, pu, k, y)});
                }
            }
        }
        svc->dispatcher = std::make_unique<serve::Dispatcher>(
            svc->registry, svc->metrics, &engine);
        serve::ServerOptions opts;
        opts.shards = kShards;
        svc->server = std::make_unique<serve::Server>(*svc->dispatcher, opts);
        // The mirror needs no oracle log; only the decisions matter.
        sched::SchedOptions mirror_opts;
        mirror_opts.recordEvents = false;
        auto mirror =
            std::make_unique<sched::QosController>(xavier, &engine,
                                                   mirror_opts);
        std::string error;
        if (!svc->server->start(&error) ||
            !svc->client.connectTo("127.0.0.1", svc->server->port(),
                                   &error)) {
            out.fail("serve_mixed: service start: " + error);
            client.attach(nullptr, std::move(mirror));
            return;
        }
        timeval tv{kRecvTimeoutSeconds, 0};
        ::setsockopt(svc->client.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                     sizeof tv);
        client.attach(svc.get(), std::move(mirror));
        std::vector<Expect> warm;
        for (const std::string &b : benches) {
            Expect e;
            e.op = Expect::Op::Schedule;
            e.bench = b;
            warm.push_back(e);
        }
        for (Expect::Op op : {Expect::Op::Predict, Expect::Op::SchedStats}) {
            Expect e;
            e.op = op;
            warm.push_back(e);
        }
        client.burst(warm);
        // A complete may only name a handle whose admission came back.
        Expect complete;
        complete.op = Expect::Op::Complete;
        client.burst({complete});
    });
    out.provenance["server_shards"] =
        std::to_string(svc && svc->server ? svc->server->shardCount() : 0);

    runMeasuredPasses(cfg, passCount(cfg, 0.2), out, [&](unsigned) {
        double seconds = 0.0;
        for (unsigned b = 0; b < kBurstsPerPass; ++b)
            seconds += client.burst();
        return seconds;
    });

    const Json stats = client.stats();
    double requests = 0.0, errors = 0.0;
    if (const Json *eps = stats.find("endpoints")) {
        for (const auto &[name, ep] : eps->asObject()) {
            requests += numberAt(ep, {"requests"});
            errors += numberAt(ep, {"errors"});
        }
    }
    const sched::SchedStats &st = client.mirror().stats();
    out.guard["sched.admitted"] = static_cast<double>(st.admitted);
    out.guard["sched.rejected"] = static_cast<double>(st.rejected);
    out.pccsErrPp = client.pccsErr();
    out.gablesErrPp = client.gablesErr();

    out.layer["serve.requests"] = requests;
    out.layer["serve.failed"] = errors;
    out.layer["serve.predict_lat_p50_us"] =
        numberAt(stats, {"endpoints", "predict", "latency", "p50Us"});
    out.layer["serve.predict_lat_p99_us"] =
        numberAt(stats, {"endpoints", "predict", "latency", "p99Us"});
    out.layer["serve.batch_mean"] = numberAt(stats, {"batches", "meanSize"});
    out.layer["sched.admitted"] = static_cast<double>(st.admitted);
    out.layer["sched.rejected"] = static_cast<double>(st.rejected);
    out.layer["sched.schedule_lat_p50_us"] =
        numberAt(stats, {"endpoints", "schedule", "latency", "p50Us"});
    out.layer["sched.complete_lat_p50_us"] =
        numberAt(stats, {"endpoints", "complete", "latency", "p50Us"});
    out.engineJobs = engine.jobs();
    out.layer["runner.jobs"] = engine.jobs();
    return out;
}

} // namespace perfbench

/**
 * @file
 * The wire protocol of the prediction service: newline-delimited JSON
 * frames, one request per line, one response line per request.
 *
 * Request:  {"op": "<endpoint>", "id": <any>, ...endpoint fields}
 * Response: {"id": <echoed>, "ok": true,  "result": {...}}
 *        or {"id": <echoed>, "ok": false, "error": "<diagnostic>"}
 *
 * Endpoints: predict, corun, place, explore, reload, stats, health,
 * shutdown, schedule, complete, sched_stats (see DESIGN.md section 9
 * for the field grammar). Every malformed frame — garbage bytes,
 * oversized lines, bad JSON, wrong field types — yields an `ok:false`
 * response for that frame only; nothing a client sends can terminate
 * the service.
 *
 * The dispatcher is transport-agnostic (tests drive it without
 * sockets) and synchronous: a caller hands over the batch of frames
 * one event-loop drain produced and gets wire-ready responses back.
 * All `predict` frames of the batch are coalesced into one SoA
 * kernel call per distinct model (flat combining happens at the
 * server's shard level — every readable connection of a readiness
 * cycle contributes frames to the same batch). Every frame takes one
 * path: frames arrive as string_views, the strict JSON parser fills
 * the frame's reusable JsonDoc in a caller-owned Scratch, and the
 * handlers read their fields through JsonCursor. The `predict`,
 * `schedule`, `complete` and `sched_stats` results are written
 * straight into the scratch buffers, so in steady state their parse
 * and reply allocate nothing; the admin ops build Json results.
 */

#ifndef PCCS_SERVE_PROTOCOL_HH
#define PCCS_SERVE_PROTOCOL_HH

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "pccs/phases.hh"
#include "runner/sweep_engine.hh"
#include "serve/json.hh"
#include "serve/metrics.hh"
#include "serve/registry.hh"

namespace pccs::sched {
class QosController;
}

namespace pccs::serve {

/**
 * Reassembles newline-delimited frames from a TCP byte stream that
 * may arrive arbitrarily split or merged. Lines longer than the
 * configured maximum are reported once as oversized (so the peer gets
 * a diagnostic) and their remaining bytes are discarded until the
 * terminating newline, bounding memory per connection.
 *
 * `nextView()` hands out frames as string_views into the internal
 * buffer, valid until the next `feed()` or `reset()` (the buffer is
 * compacted on feed, never while views are outstanding).
 */
class FrameBuffer
{
  public:
    explicit FrameBuffer(std::size_t max_frame_bytes = 1 << 20)
        : maxFrame_(max_frame_bytes)
    {
    }

    /** One reassembled frame (without the trailing newline); text
     *  is valid until the next feed/reset. */
    struct View
    {
        std::string_view text;
        /** True when the line exceeded the limit (text is empty). */
        bool oversized = false;
    };

    /** Append raw bytes from the stream. Invalidates prior views. */
    void feed(const char *data, std::size_t n);

    /** @return the next complete frame as a view, if any. */
    std::optional<View> nextView();

    /** Drop all buffered state (slab reuse for a new connection). */
    void reset();

    /** Buffered not-yet-consumed bytes. */
    std::size_t pendingBytes() const { return buf_.size() - pos_; }

  private:
    std::string buf_;
    /** Consumed prefix of buf_ (compacted away on the next feed). */
    std::size_t pos_ = 0;
    /** Newline scan cursor, so long partial lines stay linear. */
    std::size_t scanned_ = 0;
    std::size_t maxFrame_;
    bool discarding_ = false;
};

/** Configuration of a dispatcher (and so of the service). */
struct DispatchOptions
{
    /** Frequency-grid points of the `explore` endpoint. */
    unsigned exploreGridSteps = 64;
};

/** One response's byte range inside DispatchScratch::wire
 *  (including the trailing newline). */
struct WireSpan
{
    std::size_t offset = 0;
    std::size_t length = 0;
};

/**
 * Parses, validates, and executes protocol requests against a model
 * registry, recording metrics. Thread-safe: server shards call
 * `handleFrames` concurrently, each with its own Scratch.
 */
class Dispatcher
{
  public:
    /** One parsed, batchable predict query awaiting evaluation.
     *  Lives in Scratch so its buffers are reused across batches. */
    struct PredictJob
    {
        std::shared_ptr<const ModelEntry> entry;
        GBps external = 0.0;
        /** One entry with share 1.0 for single-point queries. */
        std::vector<model::PhaseDemand> phases;
    };

    /**
     * Caller-owned reusable working state: one per server shard (or
     * per thread). After handleFrames returns, `wire` holds every
     * response concatenated ('\n'-terminated) and `spans[i]` is the
     * byte range answering input frame i. Everything else is
     * internal scratch that keeps its capacity across calls — the
     * reason the steady-state request path performs no allocation.
     */
    struct Scratch
    {
        std::string wire;
        std::vector<WireSpan> spans;

        /** @name internal (reused by the dispatcher) @{ */
        struct Slot
        {
            EndpointOp op = EndpointOp::Frame;
            /** Unknown op name (overflow metrics); cold. */
            std::string opOther;
            /** The frame's parse, reused across batches. */
            JsonDoc doc;
            /** The request's "id" in `doc`; absent when it has none. */
            JsonCursor id;
            /** Result of an admin op. */
            Json result;
            /** Streamed result: [resultBegin, resultEnd) of results. */
            std::size_t resultBegin = 0;
            std::size_t resultEnd = 0;
            std::string error;
            int jobIndex = -1;
            std::chrono::steady_clock::time_point start;
        };
        std::vector<Slot> slots;
        /** Result objects of schedule/complete/sched_stats, written
         *  while the frames execute in order, copied into `wire`. */
        std::string results;
        std::vector<PredictJob> jobs;
        std::size_t jobsUsed = 0;
        std::vector<const ModelEntry *> groupEntries;
        std::vector<std::vector<std::size_t>> groupMembers;
        std::vector<double> gx, gy, gout, rs;
        /** @} */
    };

    /**
     * @param engine evaluation engine for batched predicts and the
     *        simulator-backed endpoints; the process-wide engine
     *        when null
     */
    Dispatcher(ModelRegistry &registry, Metrics &metrics,
               runner::SweepEngine *engine = nullptr,
               DispatchOptions options = {});
    ~Dispatcher();

    Dispatcher(const Dispatcher &) = delete;
    Dispatcher &operator=(const Dispatcher &) = delete;

    /**
     * Handle one batch of frames (typically: everything one event
     * loop readiness cycle produced, across all of a shard's ready
     * connections). Responses land in scratch.wire / scratch.spans,
     * exactly one per frame, in frame order. All well-formed
     * `predict` frames of the batch are evaluated in one coalesced
     * pass (one batch kernel call per distinct model).
     *
     * @param shutdown set to true when a frame requested shutdown
     */
    void handleFrames(const FrameBuffer::View *frames,
                      std::size_t count, Scratch &scratch,
                      bool *shutdown = nullptr);

    ModelRegistry &registry() { return registry_; }
    Metrics &metrics() { return metrics_; }
    runner::SweepEngine &engine() { return *engine_; }

  private:
    /** Lazily built simulator + per-PU models of one named SoC. */
    struct SocBundle
    {
        soc::SocConfig config;
        std::unique_ptr<soc::SocSimulator> sim;
        std::vector<std::unique_ptr<model::PccsModel>> models;
        /** QoS scheduler, created by the first `schedule` request
         *  (its admission policy is fixed at that moment). */
        std::unique_ptr<sched::QosController> sched;
    };

    /**
     * Parse one frame into its slot's document and run it: `predict`
     * queues a job, `schedule`/`complete`/`sched_stats` append their
     * result to scratch.results, the admin ops leave a Json in
     * slot.result, and any failure leaves slot.error.
     */
    void handleRequest(std::string_view text, Scratch &scratch,
                       Scratch::Slot &slot, bool *shutdown);

    /** Run a parsed request by slot.op (throws request errors). */
    void execute(JsonCursor request, Scratch &scratch,
                 Scratch::Slot &slot, bool *shutdown);

    Json doCorun(JsonCursor request);
    Json doPlace(JsonCursor request);
    Json doExplore(JsonCursor request);
    Json doReload(JsonCursor request);
    Json doStats() const;
    Json doHealth() const;
    void doSchedule(JsonCursor request, std::string &out);
    void doComplete(JsonCursor request, std::string &out);
    void doSchedStats(JsonCursor request, std::string &out);

    /** Parse a predict request into a scratch job slot. */
    void makePredictJob(JsonCursor request, Scratch &scratch,
                        Scratch::Slot &slot);

    /** Append one job's wire result object ({"region":...}). */
    static void appendPredictResult(const PredictJob &job, double rs,
                                    std::string &wire);

    /**
     * Evaluate the batch in scratch.jobs[0..jobsUsed): single-point
     * queries are grouped by model snapshot and each distinct
     * model's batch kernel runs once over the group's
     * structure-of-arrays demands (multi-phase queries aggregate
     * through the piecewise path). Results land in scratch.rs,
     * bit-exact with per-job scalar evaluation.
     */
    void evaluateJobs(Scratch &scratch);

    SocBundle &socBundle(std::string_view soc_name);
    const model::PccsModel &puModel(SocBundle &bundle,
                                    std::size_t pu_index);

    ModelRegistry &registry_;
    Metrics &metrics_;
    runner::SweepEngine *engine_;
    DispatchOptions options_;

    std::mutex socMutex_;
    std::map<std::string, std::unique_ptr<SocBundle>, std::less<>> socs_;
};

} // namespace pccs::serve

#endif // PCCS_SERVE_PROTOCOL_HH

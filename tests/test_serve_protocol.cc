/**
 * @file
 * Tests for the serve protocol layer: frame reassembly, request
 * dispatch, batching, registry reloads, and robustness against
 * malformed input — all without sockets.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "pccs/corun.hh"
#include "pccs/model.hh"
#include "pccs/serialize.hh"
#include "serve/protocol.hh"

namespace pccs::serve {
namespace {

model::PccsParams
sampleParams()
{
    model::PccsParams p;
    p.normalBw = 38.1;
    p.intensiveBw = 96.2;
    p.mrmc = 4.9;
    p.cbp = 45.3;
    p.tbwdc = 87.2;
    p.rateN = 1.11;
    p.peakBw = 137.0;
    return p;
}

/** A registry+metrics+dispatcher trio with one model, "m". */
struct Service
{
    ModelRegistry registry;
    Metrics metrics;
    Dispatcher dispatcher{registry, metrics};

    Service() { registry.addFromParams("m", sampleParams(), "test"); }

    /** One reply line per frame, in frame order, without the
     *  trailing newline (a fresh Scratch per call). */
    std::vector<std::string>
    handle(const std::vector<FrameBuffer::View> &frames,
           bool *shutdown = nullptr)
    {
        Dispatcher::Scratch scratch;
        dispatcher.handleFrames(frames.data(), frames.size(), scratch,
                                shutdown);
        std::vector<std::string> out;
        for (const WireSpan &span : scratch.spans)
            out.emplace_back(scratch.wire, span.offset, span.length - 1);
        return out;
    }

    /** The reply line to one frame. */
    std::string reply(std::string_view frame, bool *shutdown = nullptr)
    {
        return handle({{frame}}, shutdown).front();
    }

    Json roundTrip(const std::string &frame, bool *shutdown = nullptr)
    {
        const std::string line = reply(frame, shutdown);
        const JsonParse parsed = parseJson(line);
        EXPECT_TRUE(parsed.ok()) << line;
        return parsed.ok() ? *parsed.value : Json();
    }
};

TEST(FrameBuffer, SplitAndMergedReads)
{
    FrameBuffer fb;
    // One frame delivered a byte at a time...
    const std::string one = "{\"op\":\"health\"}\n";
    for (char c : one) {
        fb.feed(&c, 1);
        if (c != '\n') {
            EXPECT_FALSE(fb.nextView().has_value());
        }
    }
    auto frame = fb.nextView();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->text, "{\"op\":\"health\"}");

    // ...then three frames merged into a single read, one of them
    // blank and one carrying a \r\n terminator.
    const std::string merged = "abc\r\n\n{\"x\":1}\ntail";
    fb.feed(merged.data(), merged.size());
    frame = fb.nextView();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->text, "abc");
    frame = fb.nextView();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->text, "{\"x\":1}");
    EXPECT_FALSE(fb.nextView().has_value()); // "tail" incomplete
    fb.feed("\n", 1);
    frame = fb.nextView();
    ASSERT_TRUE(frame.has_value());
    EXPECT_EQ(frame->text, "tail");
}

TEST(FrameBuffer, OversizedLinesAreBoundedAndReported)
{
    FrameBuffer fb(16);
    const std::string big(100, 'x');
    fb.feed(big.data(), big.size());
    auto frame = fb.nextView();
    ASSERT_TRUE(frame.has_value());
    EXPECT_TRUE(frame->oversized);

    // The rest of the oversized line is discarded, including across
    // later feeds, and the stream recovers at the next newline.
    fb.feed(big.data(), big.size());
    EXPECT_FALSE(fb.nextView().has_value());
    const std::string rest = "still-the-big-line\nok\n";
    fb.feed(rest.data(), rest.size());
    frame = fb.nextView();
    ASSERT_TRUE(frame.has_value());
    EXPECT_FALSE(frame->oversized);
    EXPECT_EQ(frame->text, "ok");
}

TEST(Dispatcher, PredictMatchesInProcessModelBitExactly)
{
    Service svc;
    const model::PccsModel reference(sampleParams());
    for (double x : {5.0, 20.0, 60.0, 110.0, 140.0}) {
        for (double y : {0.0, 15.0, 55.0, 90.0}) {
            char frame[160];
            std::snprintf(frame, sizeof(frame),
                          "{\"op\":\"predict\",\"id\":7,\"model\":"
                          "\"m\",\"demand\":%.17g,\"external\":%.17g}",
                          x, y);
            const Json resp = svc.roundTrip(frame);
            ASSERT_TRUE(resp.find("ok")->asBool()) << resp.dump();
            EXPECT_DOUBLE_EQ(resp.find("id")->asNumber(), 7.0);
            const Json &result = *resp.find("result");
            // Bit-exact equality with the in-process model.
            EXPECT_EQ(result.find("relativeSpeed")->asNumber(),
                      reference.relativeSpeed(x, y));
            EXPECT_EQ(result.find("slowdownFactor")->asNumber(),
                      reference.slowdownFactor(x, y));
            EXPECT_EQ(result.find("region")->asString(),
                      model::regionName(reference.classify(x)));
        }
    }
}

TEST(Dispatcher, PhasedPredictMatchesPiecewise)
{
    Service svc;
    const model::PccsModel reference(sampleParams());
    const std::vector<model::PhaseDemand> phases{{90.0, 0.4},
                                                 {20.0, 0.6}};
    const Json resp = svc.roundTrip(
        "{\"op\":\"predict\",\"model\":\"m\",\"external\":30,"
        "\"phases\":[{\"demand\":90,\"share\":0.4},"
        "{\"demand\":20,\"share\":0.6}]}");
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.dump();
    EXPECT_EQ(resp.find("result")->find("relativeSpeed")->asNumber(),
              model::predictPiecewise(reference, phases, 30.0));
}

TEST(Dispatcher, BatchedFramesAnswerInOrder)
{
    Service svc;
    std::vector<std::string> texts;
    const model::PccsModel reference(sampleParams());
    for (int i = 0; i < 24; ++i) {
        char frame[160];
        std::snprintf(frame, sizeof(frame),
                      "{\"op\":\"predict\",\"id\":%d,\"model\":\"m\","
                      "\"demand\":%d,\"external\":%d}",
                      i, 10 + i, 2 * i);
        texts.push_back(frame);
    }
    std::vector<FrameBuffer::View> frames;
    for (const std::string &text : texts)
        frames.push_back({text});
    const std::vector<std::string> out = svc.handle(frames);
    ASSERT_EQ(out.size(), frames.size());
    for (int i = 0; i < 24; ++i) {
        const JsonParse parsed = parseJson(out[i]);
        ASSERT_TRUE(parsed.ok());
        EXPECT_DOUBLE_EQ(parsed.value->find("id")->asNumber(), i);
        EXPECT_EQ(parsed.value->find("result")
                      ->find("relativeSpeed")
                      ->asNumber(),
                  reference.relativeSpeed(10.0 + i, 2.0 * i));
    }
    // The whole burst went through the batcher, and at least one
    // multi-request pass was recorded.
    const Json stats = svc.roundTrip("{\"op\":\"stats\"}");
    ASSERT_NE(stats.find("result"), nullptr);
    const Json *batches = stats.find("result")->find("batches");
    ASSERT_NE(batches, nullptr);
    EXPECT_GE(batches->find("requests")->asNumber(), 24.0);
    EXPECT_GT(batches->find("largest")->asNumber(), 1.0);
    // The achieved batch sizes are also exposed as powers-of-two
    // histogram buckets; the bucket counts add up to the pass count,
    // and a multi-request pass lands in a bucket past "1".
    const Json *histogram = batches->find("histogram");
    ASSERT_NE(histogram, nullptr);
    double bucketed = 0.0;
    double beyond_one = 0.0;
    for (const auto &[label, count] : histogram->asObject()) {
        bucketed += count.asNumber();
        if (label != "1")
            beyond_one += count.asNumber();
    }
    EXPECT_DOUBLE_EQ(bucketed, batches->find("passes")->asNumber());
    EXPECT_GE(beyond_one, 1.0);
}

TEST(Dispatcher, ConcurrentCallersAreCoalescedSafely)
{
    Service svc;
    const model::PccsModel reference(sampleParams());
    constexpr int kThreads = 8, kPerThread = 50;
    std::vector<std::thread> threads;
    std::vector<int> bad(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                const double x = 10.0 + (t * kPerThread + i) % 120;
                char frame[160];
                std::snprintf(
                    frame, sizeof(frame),
                    "{\"op\":\"predict\",\"model\":\"m\","
                    "\"demand\":%.17g,\"external\":25}",
                    x);
                const std::string line = svc.reply(frame);
                const JsonParse parsed = parseJson(line);
                if (!parsed.ok() ||
                    parsed.value->find("result")
                            ->find("relativeSpeed")
                            ->asNumber() !=
                        reference.relativeSpeed(x, 25.0)) {
                    ++bad[t];
                }
            }
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(bad[t], 0);
    EXPECT_EQ(svc.metrics.totalRequests(),
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST(Dispatcher, CorunMatchesLibraryPrediction)
{
    Service svc;
    const model::PccsModel reference(sampleParams());
    std::vector<model::CorunInput> inputs(2);
    inputs[0].model = &reference;
    inputs[0].phases = {{80.0, 1.0}};
    inputs[1].model = &reference;
    inputs[1].phases = {{30.0, 1.0}};
    const std::vector<double> expected =
        model::predictCorun(inputs, {});

    const Json resp = svc.roundTrip(
        "{\"op\":\"corun\",\"entries\":["
        "{\"model\":\"m\",\"demand\":80},"
        "{\"model\":\"m\",\"demand\":30}]}");
    ASSERT_TRUE(resp.find("ok")->asBool()) << resp.dump();
    const Json &rs = *resp.find("result")->find("relativeSpeed");
    ASSERT_EQ(rs.asArray().size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(rs.asArray()[i].asNumber(), expected[i]);
}

TEST(Dispatcher, MalformedFramesErrorWithoutTerminating)
{
    Service svc;
    const char *bad[] = {
        "garbage",
        "{\"op\":\"predict\"}",            // missing fields
        "{\"op\":\"predict\",\"model\":\"nope\",\"demand\":1,"
        "\"external\":1}",                  // unknown model
        "{\"op\":\"predict\",\"model\":\"m\",\"demand\":-5,"
        "\"external\":1}",                  // negative demand
        "{\"op\":\"predict\",\"model\":\"m\",\"demand\":\"x\","
        "\"external\":1}",                  // wrong type
        "{\"op\":\"frobnicate\"}",          // unknown op
        "{\"op\":42}",                      // non-string op
        "[1,2,3]",                          // not an object
        "{\"op\":\"corun\",\"entries\":[]}",
        "{\"op\":\"place\",\"soc\":\"mars\",\"tasks\":[\"lud\"]}",
        "{\"op\":\"reload\",\"model\":\"m\"}", // no backing file
        "\xff\xfe binary junk",
    };
    for (const char *frame : bad) {
        const Json resp = svc.roundTrip(frame);
        ASSERT_NE(resp.find("ok"), nullptr) << frame;
        EXPECT_FALSE(resp.find("ok")->asBool()) << frame;
        EXPECT_FALSE(resp.find("error")->asString().empty()) << frame;
    }
    // Deeply nested input hits the depth limit, not the stack.
    std::string deep = "{\"op\":\"predict\",\"model\":";
    for (int i = 0; i < 5000; ++i)
        deep += '[';
    EXPECT_FALSE(svc.roundTrip(deep).find("ok")->asBool());

    // Oversized frames are reported as such.
    const auto out = svc.handle({{{}, true}});
    ASSERT_EQ(out.size(), 1u);
    EXPECT_NE(out[0].find("size limit"), std::string::npos);

    // After all that abuse the dispatcher still works.
    const Json ok = svc.roundTrip(
        "{\"op\":\"predict\",\"model\":\"m\",\"demand\":20,"
        "\"external\":10}");
    EXPECT_TRUE(ok.find("ok")->asBool());
    EXPECT_GT(svc.metrics.totalRequests(), 0u);
}

TEST(Dispatcher, FuzzedFramesNeverCrash)
{
    Service svc;
    Rng rng(12345);
    const std::string alphabet =
        "{}[]\",:0123456789.eE+-truefalsnl \\u\n\t\x01\x7f";
    for (int round = 0; round < 2000; ++round) {
        std::string frame;
        const std::size_t len = rng.below(64);
        for (std::size_t i = 0; i < len; ++i)
            frame += alphabet[rng.below(alphabet.size())];
        // Embedded newlines would be two frames on the wire; here we
        // exercise the dispatcher directly with arbitrary bytes.
        const std::string line = svc.reply(frame);
        const JsonParse parsed = parseJson(line);
        ASSERT_TRUE(parsed.ok()) << line;
        ASSERT_NE(parsed.value->find("ok"), nullptr);
    }
    // And mutated near-valid requests.
    const std::string valid =
        "{\"op\":\"predict\",\"model\":\"m\",\"demand\":20,"
        "\"external\":10}";
    for (int round = 0; round < 2000; ++round) {
        std::string frame = valid;
        const std::size_t hits = 1 + rng.below(4);
        for (std::size_t h = 0; h < hits; ++h)
            frame[rng.below(frame.size())] = static_cast<char>(
                alphabet[rng.below(alphabet.size())]);
        const std::string line = svc.reply(frame);
        ASSERT_TRUE(parseJson(line).ok()) << line;
    }
}

TEST(Registry, ReloadSwapsVersionsAndSurvivesFailure)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "pccs_serve_reload.model")
            .string();
    model::saveParams(sampleParams(), path);

    ModelRegistry registry;
    ASSERT_EQ(registry.addFromFile("disk", path), "");
    auto v1 = registry.find("disk");
    ASSERT_NE(v1, nullptr);
    EXPECT_EQ(v1->version, 1u);

    // Change the file; reload publishes version 2.
    model::PccsParams changed = sampleParams();
    changed.cbp = 50.0;
    model::saveParams(changed, path);
    const auto good = registry.reload("disk");
    EXPECT_TRUE(good.ok) << good.error;
    EXPECT_EQ(good.version, 2u);
    EXPECT_DOUBLE_EQ(registry.find("disk")->params.cbp, 50.0);

    // The old snapshot a reader held across the swap stays valid.
    EXPECT_DOUBLE_EQ(v1->params.cbp, 45.3);

    // Corrupt the file; reload fails and version 2 stays published.
    {
        std::ofstream out(path);
        out << "pccs-model v1\ncbp broken\n";
    }
    const auto bad = registry.reload("disk");
    EXPECT_FALSE(bad.ok);
    EXPECT_FALSE(bad.error.empty());
    EXPECT_EQ(registry.find("disk")->version, 2u);
    EXPECT_DOUBLE_EQ(registry.find("disk")->params.cbp, 50.0);

    EXPECT_FALSE(registry.reload("never-added").ok);
    std::remove(path.c_str());
}

TEST(Dispatcher, ReloadUnderLoadKeepsInFlightRequestsConsistent)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         "pccs_serve_reload_load.model")
            .string();
    model::saveParams(sampleParams(), path);

    Service svc;
    ASSERT_EQ(svc.registry.addFromFile("disk", path), "");
    const model::PccsModel before(sampleParams());
    model::PccsParams changedParams = sampleParams();
    changedParams.cbp = 60.0;
    const model::PccsModel after(changedParams);

    std::thread reloader([&] {
        model::saveParams(changedParams, path);
        for (int i = 0; i < 50; ++i)
            svc.reply("{\"op\":\"reload\",\"model\":\"disk\"}");
    });
    int mismatches = 0;
    for (int i = 0; i < 400; ++i) {
        const Json resp = svc.roundTrip(
            "{\"op\":\"predict\",\"model\":\"disk\",\"demand\":90,"
            "\"external\":40}");
        ASSERT_TRUE(resp.find("ok")->asBool()) << resp.dump();
        const double rs =
            resp.find("result")->find("relativeSpeed")->asNumber();
        // Every answer is one model version or the other — never a
        // torn mixture, never an error.
        if (rs != before.relativeSpeed(90.0, 40.0) &&
            rs != after.relativeSpeed(90.0, 40.0)) {
            ++mismatches;
        }
    }
    reloader.join();
    EXPECT_EQ(mismatches, 0);
    std::remove(path.c_str());
}

TEST(Dispatcher, StatsAndHealthReportActivity)
{
    Service svc;
    for (int i = 0; i < 10; ++i)
        svc.roundTrip("{\"op\":\"predict\",\"model\":\"m\","
                      "\"demand\":20,\"external\":10}");
    svc.roundTrip("{\"op\":\"nonsense\"}");

    const Json health = svc.roundTrip("{\"op\":\"health\"}");
    EXPECT_EQ(health.find("result")->find("status")->asString(),
              "ok");
    EXPECT_DOUBLE_EQ(health.find("result")->find("models")->asNumber(),
                     1.0);

    const Json stats = svc.roundTrip("{\"op\":\"stats\"}");
    ASSERT_TRUE(stats.find("ok")->asBool());
    const Json &result = *stats.find("result");
    const Json *predict =
        result.find("endpoints")->find("predict");
    ASSERT_NE(predict, nullptr);
    EXPECT_DOUBLE_EQ(predict->find("requests")->asNumber(), 10.0);
    EXPECT_DOUBLE_EQ(predict->find("errors")->asNumber(), 0.0);
    const Json *latency = predict->find("latency");
    EXPECT_GT(latency->find("p50Us")->asNumber(), 0.0);
    EXPECT_GE(latency->find("p99Us")->asNumber(),
              latency->find("p50Us")->asNumber());
    EXPECT_GE(latency->find("maxUs")->asNumber(),
              latency->find("p99Us")->asNumber());
    const Json *bad = result.find("endpoints")->find("nonsense");
    ASSERT_NE(bad, nullptr);
    EXPECT_DOUBLE_EQ(bad->find("errors")->asNumber(), 1.0);
    EXPECT_GT(result.find("batches")->find("passes")->asNumber(),
              0.0);
    EXPECT_EQ(result.find("models")
                  ->asArray()
                  .front()
                  .find("name")
                  ->asString(),
              "m");
}

TEST(Dispatcher, ShutdownOpSetsTheFlag)
{
    Service svc;
    bool shutdown = false;
    const Json resp =
        svc.roundTrip("{\"op\":\"shutdown\"}", &shutdown);
    EXPECT_TRUE(resp.find("ok")->asBool());
    EXPECT_TRUE(shutdown);
}

TEST(Dispatcher, ScheduleAdmitCompletePromoteRoundTrip)
{
    Service svc;
    const Json first = svc.roundTrip(
        "{\"op\":\"schedule\",\"soc\":\"xavier\",\"pu\":\"gpu\","
        "\"bench\":\"streamcluster\",\"slo\":1.5}");
    ASSERT_TRUE(first.find("ok")->asBool()) << first.dump();
    const Json &r1 = *first.find("result");
    EXPECT_EQ(r1.find("decision")->asString(), "admitted");
    ASSERT_NE(r1.find("job"), nullptr);
    EXPECT_TRUE(r1.find("job")->isString())
        << "handles travel as exact decimal strings";
    EXPECT_GT(r1.find("frequencyMhz")->asNumber(), 0.0);
    EXPECT_GE(r1.find("predictedSlowdown")->asNumber(), 1.0);
    const std::string handle = r1.find("job")->asString();

    // Same PU again: capacity 1, so the arrival waits.
    const Json second = svc.roundTrip(
        "{\"op\":\"schedule\",\"soc\":\"xavier\",\"pu\":\"gpu\","
        "\"bench\":\"bfs\",\"slo\":1.5}");
    const Json &r2 = *second.find("result");
    EXPECT_EQ(r2.find("decision")->asString(), "queued");
    EXPECT_FALSE(r2.find("reason")->asString().empty());

    // Completing the resident promotes the waiter.
    const Json done = svc.roundTrip(
        "{\"op\":\"complete\",\"soc\":\"xavier\",\"job\":\"" + handle +
        "\"}");
    ASSERT_TRUE(done.find("ok")->asBool()) << done.dump();
    const Json &r3 = *done.find("result");
    EXPECT_TRUE(r3.find("completed")->asBool());
    ASSERT_EQ(r3.find("promoted")->asArray().size(), 1u);
    EXPECT_EQ(r3.find("promoted")
                  ->asArray()[0]
                  .find("decision")
                  ->asString(),
              "admitted");

    // The same handle is now stale.
    const Json stale = svc.roundTrip(
        "{\"op\":\"complete\",\"soc\":\"xavier\",\"job\":\"" + handle +
        "\"}");
    EXPECT_FALSE(stale.find("ok")->asBool());

    const Json stats = svc.roundTrip(
        "{\"op\":\"sched_stats\",\"soc\":\"xavier\"}");
    ASSERT_TRUE(stats.find("ok")->asBool());
    const Json &rs = *stats.find("result");
    EXPECT_TRUE(rs.find("scheduler")->asBool());
    EXPECT_EQ(rs.find("policy")->asString(), "strict");
    const Json &counters = *rs.find("counters");
    EXPECT_DOUBLE_EQ(counters.find("submitted")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(counters.find("admitted")->asNumber(), 2.0);
    EXPECT_DOUBLE_EQ(counters.find("promoted")->asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(rs.find("resident")->asNumber(), 1.0);
    EXPECT_EQ(rs.find("pus")->asArray().size(), 3u);
}

TEST(Dispatcher, ScheduleValidatesRequests)
{
    Service svc;
    // No scheduler yet: stats say so, complete errors.
    const Json empty = svc.roundTrip(
        "{\"op\":\"sched_stats\",\"soc\":\"xavier\"}");
    EXPECT_FALSE(empty.find("result")->find("scheduler")->asBool());
    EXPECT_FALSE(
        svc.roundTrip("{\"op\":\"complete\",\"soc\":\"xavier\","
                      "\"job\":\"7\"}")
            .find("ok")
            ->asBool());

    // Field validation, each as its own error response.
    for (const char *bad : {
             "{\"op\":\"schedule\",\"soc\":\"xavier\","
             "\"bench\":\"bfs\"}", // missing slo
             "{\"op\":\"schedule\",\"soc\":\"xavier\","
             "\"bench\":\"bfs\",\"slo\":0.5}", // slo < 1
             "{\"op\":\"schedule\",\"soc\":\"xavier\","
             "\"bench\":\"nope\",\"slo\":1.5}", // unknown bench
             "{\"op\":\"schedule\",\"soc\":\"xavier\","
             "\"slo\":1.5}", // neither bench nor kernel
             "{\"op\":\"schedule\",\"soc\":\"xavier\",\"slo\":1.5,"
             "\"kernel\":{\"intensity\":1,\"locality\":7}}",
         }) {
        const Json resp = svc.roundTrip(bad);
        EXPECT_FALSE(resp.find("ok")->asBool()) << bad;
    }

    // A custom kernel works, and fixes the policy for the SoC ...
    const Json ok = svc.roundTrip(
        "{\"op\":\"schedule\",\"soc\":\"xavier\",\"slo\":2.0,"
        "\"policy\":\"best-effort\",\"pu\":\"gpu\","
        "\"kernel\":{\"intensity\":0.01,\"locality\":0.9}}");
    ASSERT_TRUE(ok.find("ok")->asBool()) << ok.dump();
    EXPECT_EQ(ok.find("result")->find("decision")->asString(),
              "admitted");

    // ... so asking for a different policy later is an error.
    const Json clash = svc.roundTrip(
        "{\"op\":\"schedule\",\"soc\":\"xavier\",\"slo\":2.0,"
        "\"policy\":\"strict\",\"bench\":\"bfs\"}");
    EXPECT_FALSE(clash.find("ok")->asBool());
    EXPECT_NE(clash.find("error")->asString().find("fixed"),
              std::string::npos);
}

// Golden wire bytes of the streamed QoS replies: every decision kind,
// a completion that promotes, and sched_stats with and without a
// scheduler. Key order and number spelling are part of the protocol.
TEST(Dispatcher, QosRepliesMatchGoldenBytes)
{
    Service svc;
    EXPECT_EQ(
        svc.reply("{\"op\":\"sched_stats\",\"id\":3,\"soc\":\"xavier\"}"),
        "{\"id\":3,\"ok\":true,\"result\":{\"scheduler\":false}}");
    EXPECT_EQ(
        svc.reply("{\"op\":\"schedule\",\"id\":1,\"soc\":\"xavier\","
                  "\"pu\":\"gpu\",\"bench\":\"streamcluster\","
                  "\"slo\":1.5}"),
        "{\"id\":1,\"ok\":true,\"result\":{\"decision\":\"admitted\","
        "\"job\":\"4294967296\",\"pu\":1,\"puName\":\"Volta GPU\","
        "\"frequencyMhz\":929.47499999999991,"
        "\"predictedSlowdown\":1.4727527489323204,"
        "\"worstSlack\":0.018164834045119704}}");
    EXPECT_EQ(
        svc.reply("{\"op\":\"schedule\",\"id\":2,\"soc\":\"xavier\","
                  "\"pu\":\"gpu\",\"bench\":\"bfs\",\"slo\":1.5}"),
        "{\"id\":2,\"ok\":true,\"result\":{\"decision\":\"queued\","
        "\"reason\":\"all candidate PUs at capacity\"}}");
    EXPECT_EQ(
        svc.reply("{\"op\":\"complete\",\"id\":4,\"soc\":\"xavier\","
                  "\"job\":\"4294967296\"}"),
        "{\"id\":4,\"ok\":true,\"result\":{\"completed\":true,"
        "\"promoted\":[{\"decision\":\"admitted\","
        "\"job\":\"12884901888\",\"pu\":1,\"puName\":\"Volta GPU\","
        "\"frequencyMhz\":929.47499999999991,"
        "\"predictedSlowdown\":1.4706298051156548,"
        "\"worstSlack\":0.019580129922896816}]}}");
    EXPECT_EQ(
        svc.reply("{\"op\":\"sched_stats\",\"id\":5,\"soc\":\"xavier\"}"),
        "{\"id\":5,\"ok\":true,\"result\":{\"scheduler\":true,"
        "\"policy\":\"strict\",\"counters\":{\"submitted\":2,"
        "\"admitted\":2,\"queued\":1,\"rejected\":0,\"completed\":1,"
        "\"promoted\":1,\"decisions\":3,\"modelPoints\":28,"
        "\"expectedViolations\":0},\"resident\":1,\"queued\":0,"
        "\"totalDemandGBps\":59.838308521891697,\"pus\":["
        "{\"name\":\"Carmel CPU\",\"resident\":0},"
        "{\"name\":\"Volta GPU\",\"resident\":1},"
        "{\"name\":\"DLA\",\"resident\":0}]}}");

    // The GPU is full: 64 arrivals fill the queue, the 65th is
    // rejected.
    const std::string waiter =
        "{\"op\":\"schedule\",\"soc\":\"xavier\",\"pu\":\"gpu\","
        "\"bench\":\"bfs\",\"slo\":1.2}";
    const std::vector<std::string> out =
        svc.handle(std::vector<FrameBuffer::View>(65, {waiter}));
    ASSERT_EQ(out.size(), 65u);
    EXPECT_EQ(out[63], "{\"ok\":true,\"result\":{\"decision\":\"queued\","
                       "\"reason\":\"all candidate PUs at capacity\"}}");
    EXPECT_EQ(out[64],
              "{\"ok\":true,\"result\":{\"decision\":\"rejected\","
              "\"reason\":\"all candidate PUs at capacity; queue "
              "full\"}}");

    // A custom kernel on another SoC, admitted best-effort.
    EXPECT_EQ(
        svc.reply("{\"op\":\"schedule\",\"id\":6,\"soc\":\"snapdragon\","
                  "\"slo\":2.0,\"policy\":\"best-effort\",\"pu\":\"cpu\","
                  "\"kernel\":{\"intensity\":0.01,\"locality\":0.9}}"),
        "{\"id\":6,\"ok\":true,\"result\":{\"decision\":\"admitted\","
        "\"job\":\"4294967296\",\"pu\":0,\"puName\":\"Kryo 485 CPU\","
        "\"frequencyMhz\":765,\"predictedSlowdown\":1.9608659960547432,"
        "\"worstSlack\":0.019567001972628395}}");
}

// Any id is echoed in canonical form: strings re-escaped, containers
// and literals re-rendered, and of duplicated ids the first.
TEST(Dispatcher, NonNumericIdsEchoCanonically)
{
    Service svc;
    const std::string predicted =
        "\"ok\":true,\"result\":{\"region\":\"minor\",\"demand\":20,"
        "\"model\":\"m\",\"version\":1,\"external\":10,"
        "\"relativeSpeed\":99.642335766423358,"
        "\"slowdownFactor\":1.0035894806241301}}";
    EXPECT_EQ(svc.reply("{\"op\":\"predict\",\"id\":\"a\\\"b\\u00e9\\n\","
                        "\"model\":\"m\",\"demand\":20,\"external\":10}"),
              "{\"id\":\"a\\\"b\xc3\xa9\\n\"," + predicted);
    EXPECT_EQ(svc.reply("{\"op\":\"predict\",\"id\":{\"k\":[1,2.5,null,"
                        "true,false],\"k\":\"dup\",\"e\":{}},"
                        "\"model\":\"m\",\"demand\":20,\"external\":10}"),
              "{\"id\":{\"k\":[1,2.5,null,true,false],\"k\":\"dup\","
              "\"e\":{}}," +
                  predicted);
    EXPECT_EQ(
        svc.reply("{\"op\":\"sched_stats\",\"id\":null,\"soc\":\"xavier\"}"),
        "{\"id\":null,\"ok\":true,\"result\":{\"scheduler\":false}}");
    EXPECT_EQ(svc.reply("{\"op\":\"sched_stats\",\"id\":1e300,\"id\":[],"
                        "\"soc\":\"xavier\"}"),
              "{\"id\":1.0000000000000001e+300,\"ok\":true,"
              "\"result\":{\"scheduler\":false}}");
    EXPECT_EQ(svc.reply("{\"id\":[\"x\",-0.0],\"op\":\"schedule\","
                        "\"soc\":\"xavier\",\"slo\":0.5,\"bench\":\"bfs\"}"),
              "{\"id\":[\"x\",-0],\"ok\":false,"
              "\"error\":\"field 'slo' must be >= 1\"}");
    EXPECT_EQ(svc.reply("{\"id\":true,\"op\":\"nope\"}"),
              "{\"id\":true,\"ok\":false,\"error\":\"unknown op 'nope'\"}");
}

TEST(Metrics, UnknownOpNamesAreBoundedPerShard)
{
    // A client flooding distinct bogus op names must not grow the
    // overflow map without bound: past kMaxOverflowOps distinct names
    // (per shard), everything folds into one "other" bucket. A
    // single-threaded flood lands on a single shard, making the cap
    // exact.
    Service svc;
    const std::size_t kFlood = 100;
    for (std::size_t i = 0; i < kFlood; ++i)
        svc.roundTrip("{\"op\":\"bogus" + std::to_string(i) + "\"}");

    const Json stats = svc.roundTrip("{\"op\":\"stats\"}");
    const Json &endpoints = *stats.find("result")->find("endpoints");
    std::size_t bogus = 0, folded = 0;
    for (const auto &[name, counters] : endpoints.asObject()) {
        if (name.rfind("bogus", 0) == 0) {
            ++bogus;
            folded += static_cast<std::size_t>(
                counters.find("requests")->asNumber());
        } else if (name == "other") {
            folded += static_cast<std::size_t>(
                counters.find("requests")->asNumber());
        }
    }
    EXPECT_LE(bogus, Metrics::kMaxOverflowOps);
    const Json *other = endpoints.find("other");
    ASSERT_NE(other, nullptr) << "the fold bucket must be reported";
    EXPECT_GE(other->find("requests")->asNumber(), 1.0);
    // No request lost to the cap: named + folded cover the flood.
    EXPECT_EQ(folded, kFlood);
}

} // namespace
} // namespace pccs::serve

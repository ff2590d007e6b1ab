/**
 * @file
 * Tests for the serve JSON value type and parser, including
 * cross-checks against the runner's JSON writers (jsonEscape,
 * jsonNumber) — the parser must accept everything they emit — and
 * the equivalence of the shared number writer and reader with
 * printf("%.17g") and strtod.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "runner/run_spec.hh"
#include "serve/json.hh"
#include "serve/protocol.hh"

namespace pccs::serve {
namespace {

Json
parsed(const std::string &text)
{
    const JsonParse p = parseJson(text);
    EXPECT_TRUE(p.ok()) << text << " -> " << p.error;
    return p.ok() ? *p.value : Json();
}

std::string
rejected(const std::string &text)
{
    const JsonParse p = parseJson(text);
    EXPECT_FALSE(p.ok()) << "accepted: " << text;
    return p.error;
}

TEST(JsonParse, Scalars)
{
    EXPECT_TRUE(parsed("null").isNull());
    EXPECT_EQ(parsed("true").asBool(), true);
    EXPECT_EQ(parsed("false").asBool(false), false);
    EXPECT_DOUBLE_EQ(parsed("0").asNumber(), 0.0);
    EXPECT_DOUBLE_EQ(parsed("-0.5e2").asNumber(), -50.0);
    EXPECT_DOUBLE_EQ(parsed("1E+3").asNumber(), 1000.0);
    EXPECT_EQ(parsed("\"hi\"").asString(), "hi");
    EXPECT_EQ(parsed("  \"padded\"  ").asString(), "padded");
}

TEST(JsonParse, Containers)
{
    const Json arr = parsed("[1, [2, 3], {\"k\": null}]");
    ASSERT_TRUE(arr.isArray());
    ASSERT_EQ(arr.asArray().size(), 3u);
    EXPECT_DOUBLE_EQ(arr.asArray()[0].asNumber(), 1.0);
    EXPECT_DOUBLE_EQ(arr.asArray()[1].asArray()[1].asNumber(), 3.0);
    EXPECT_TRUE(arr.asArray()[2].find("k")->isNull());

    const Json obj = parsed("{\"a\": 1, \"b\": {\"c\": [true]}}");
    ASSERT_TRUE(obj.isObject());
    EXPECT_DOUBLE_EQ(obj.find("a")->asNumber(), 1.0);
    EXPECT_TRUE(obj.find("b")->find("c")->asArray()[0].asBool());
    EXPECT_EQ(obj.find("missing"), nullptr);

    EXPECT_TRUE(parsed("[]").asArray().empty());
    EXPECT_TRUE(parsed("{}").asObject().empty());
}

TEST(JsonParse, StringEscapes)
{
    EXPECT_EQ(parsed("\"a\\nb\\t\\\"\\\\\\/\"").asString(),
              "a\nb\t\"\\/");
    EXPECT_EQ(parsed("\"\\u0041\\u00e9\"").asString(), "A\xc3\xa9");
    // Surrogate pair -> one 4-byte UTF-8 code point (U+1F600).
    EXPECT_EQ(parsed("\"\\ud83d\\ude00\"").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(JsonParse, StrictnessRejections)
{
    rejected("");
    rejected("   ");
    rejected("tru");
    rejected("nulll");
    rejected("01");       // leading zero
    rejected("1.");       // digits required after the point
    rejected("1e");       // digits required in the exponent
    rejected("+1");       // no leading plus
    rejected(".5");       // no bare fraction
    rejected("NaN");      // not JSON
    rejected("Infinity"); // not JSON
    rejected("[1,]");     // trailing comma
    rejected("{\"a\":1,}");
    rejected("[1 2]");
    rejected("{\"a\" 1}");
    rejected("{a: 1}");   // unquoted key
    rejected("\"unterminated");
    rejected("\"bad\\q\"");       // unknown escape
    rejected("\"\\u12\"");        // short \u escape
    rejected(std::string("\"") + '\x01' + "\""); // raw control char
    rejected("\"\\ud83d\"");      // unpaired high surrogate
    rejected("\"\\ude00\"");      // lone low surrogate
    rejected("1 2");              // trailing document content
    rejected("{} []");
}

TEST(JsonParse, ErrorsCarryOffsets)
{
    const JsonParse p = parseJson("{\"a\": tru}");
    ASSERT_FALSE(p.ok());
    EXPECT_GE(p.offset, 6u);
    EXPECT_FALSE(p.error.empty());
}

TEST(JsonParse, DepthLimitHolds)
{
    std::string deep;
    for (int i = 0; i < 2000; ++i)
        deep += '[';
    // Never crashes, whatever the nesting — it reports an error.
    const JsonParse p = parseJson(deep);
    EXPECT_FALSE(p.ok());
    EXPECT_NE(p.error.find("depth"), std::string::npos) << p.error;

    // Exactly at the limit is fine.
    JsonLimits limits;
    limits.maxDepth = 4;
    EXPECT_TRUE(parseJson("[[[[1]]]]", limits).ok());
    EXPECT_FALSE(parseJson("[[[[[1]]]]]", limits).ok());
}

TEST(JsonDump, RoundTripsStructurally)
{
    Json obj = Json::object();
    obj.set("s", "text with \"quotes\" and \\slashes\\");
    obj.set("n", 1.5);
    obj.set("flag", true);
    obj.set("nothing", nullptr);
    Json arr = Json::array();
    arr.push(1);
    arr.push("two");
    obj.set("arr", std::move(arr));

    const Json back = parsed(obj.dump());
    EXPECT_EQ(back, obj);
}

TEST(JsonDump, EscapedControlCharactersRoundTrip)
{
    // Every code point below 0x20 must be escaped by the writer and
    // restored by the parser (satellite audit of runner::jsonEscape).
    std::string all;
    for (char c = 1; c < 0x20; ++c)
        all += c;
    std::string wire = "\"";
    wire += runner::jsonEscape(all);
    wire += '"';
    // The escaped form itself must not contain raw control bytes.
    for (char c : wire)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
    EXPECT_EQ(parsed(wire).asString(), all);

    // And via Json::dump, inside a full document.
    Json obj = Json::object();
    obj.set("ctrl", all + "\x7f normal tail");
    EXPECT_EQ(parsed(obj.dump()), obj);
    EXPECT_EQ(obj.dump().find('\n'), std::string::npos);
}

TEST(JsonDoc, CursorReadsWhatTheTreeHolds)
{
    JsonDoc doc;
    ASSERT_TRUE(doc.parse(" {\"a\":[1,\"x\\ty\",null,{\"b\":false}],"
                          "\"k\":1,\"k\":2,\"e\":{},\"s\":\"\"} "));
    const JsonCursor root = doc.root();
    ASSERT_TRUE(root.isObject());
    EXPECT_EQ(root.size(), 5u);
    // find returns the first of duplicated keys, as Json::find does.
    EXPECT_EQ(root.find("k").asNumber(), 1.0);
    EXPECT_FALSE(root.find("missing"));
    EXPECT_TRUE(root.find("missing").isNull());
    EXPECT_EQ(root.find("s").asString(), "");
    EXPECT_TRUE(root.find("s").isString());

    const JsonCursor a = root.find("a");
    ASSERT_TRUE(a.isArray());
    EXPECT_EQ(a.size(), 4u);
    std::vector<JsonCursor> items;
    for (const JsonCursor item : a)
        items.push_back(item);
    ASSERT_EQ(items.size(), 4u);
    EXPECT_EQ(items[0].asNumber(), 1.0);
    EXPECT_EQ(items[1].asString(), "x\ty");
    EXPECT_TRUE(items[2].isNull());
    EXPECT_FALSE(items[3].find("b").asBool(true));
    // Accessors of the wrong kind fall back, like Json's.
    EXPECT_EQ(a.asNumber(-1.0), -1.0);
    EXPECT_EQ(a.asString(), "");
    EXPECT_EQ(root.find("k").size(), 0u);
    EXPECT_TRUE(root.find("k").begin() == root.find("k").end());

    // Materialized, duplicates stay; rendered, the bytes match Json's.
    const Json tree = root.toJson();
    EXPECT_EQ(tree.asObject().size(), 5u);
    EXPECT_EQ(tree.find("a")->asArray()[1].asString(), "x\ty");
    std::string dumped;
    root.dumpTo(dumped);
    EXPECT_EQ(dumped, tree.dump());
}

TEST(JsonDoc, ReparseReplacesAndFailureEmpties)
{
    JsonDoc doc;
    ASSERT_TRUE(doc.parse("{\"op\":\"first\",\"pad\":\"abcdefghijklmnop\"}"));
    ASSERT_TRUE(doc.parse("[\"second\"]"));
    ASSERT_TRUE(doc.root().isArray());
    EXPECT_EQ((*doc.root().begin()).asString(), "second");

    // A failed parse leaves no document, only the diagnostic.
    const struct
    {
        const char *text;
        const char *error;
        std::size_t offset;
    } bad[] = {
        {"{\"a\":1,}", "expected a string key in object", 7},
        {"[1,2", "unterminated array", 4},
        {"\"\\x\"", "unknown escape character", 3},
        {"01", "number with a leading zero", 0},
        {"{} x", "trailing characters after the document", 3},
    };
    for (const auto &b : bad) {
        EXPECT_FALSE(doc.parse(b.text)) << b.text;
        EXPECT_FALSE(doc.root()) << b.text;
        EXPECT_EQ(doc.error(), b.error) << b.text;
        EXPECT_EQ(doc.errorOffset(), b.offset) << b.text;
        const JsonParse tree = parseJson(b.text);
        EXPECT_EQ(tree.error, b.error) << b.text;
        EXPECT_EQ(tree.offset, b.offset) << b.text;
    }
    ASSERT_TRUE(doc.parse("7"));
    EXPECT_EQ(doc.root().asNumber(), 7.0);
    EXPECT_TRUE(doc.error().empty());
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(runner::jsonNumber(
                  std::numeric_limits<double>::quiet_NaN()),
              "null");
    EXPECT_EQ(runner::jsonNumber(
                  std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_EQ(runner::jsonNumber(
                  -std::numeric_limits<double>::infinity()),
              "null");
    EXPECT_TRUE(
        parsed(runner::jsonNumber(
                   std::numeric_limits<double>::quiet_NaN()))
            .isNull());
}

TEST(JsonNumber, SeventeenDigitsRoundTripBitExactly)
{
    const double values[] = {
        0.0,
        1.0 / 3.0,
        99.422549726120863,
        1e-308,
        1.7976931348623157e308,
        -123456.78901234567,
        2.2250738585072014e-308,
    };
    for (const double v : values) {
        const Json back = parsed(runner::jsonNumber(v));
        ASSERT_TRUE(back.isNumber());
        // Bit-exact: the wire format must not lose precision.
        EXPECT_EQ(back.asNumber(), v) << runner::jsonNumber(v);
    }
}

/** The values the number writer and reader are checked on. */
std::vector<double>
numberCorpus()
{
    std::vector<double> v = {0.0,
                             -0.0,
                             std::numeric_limits<double>::denorm_min(),
                             -std::numeric_limits<double>::denorm_min(),
                             std::nextafter(DBL_MIN, 0.0),
                             DBL_MIN / 3.0,
                             DBL_MIN,
                             -DBL_MIN,
                             DBL_MAX,
                             -DBL_MAX,
                             0.1,
                             1.0 / 3.0};
    for (double p = 1.0; p <= 9007199254740992.0; p *= 2.0) {
        v.push_back(p - 1.0); // 2^53 - 1 is the largest odd one
        v.push_back(p);
        v.push_back(-p);
    }
    for (int i = 0; i <= 1000; ++i)
        v.push_back(i);
    for (int e = -324; e <= 308; ++e) {
        const std::string power = "1e" + std::to_string(e);
        v.push_back(std::strtod(power.c_str(), nullptr));
    }
    // Random bit patterns: every exponent, every mantissa shape.
    std::mt19937_64 rng(20211018);
    while (v.size() < 120000) {
        const double d = std::bit_cast<double>(rng());
        if (std::isfinite(d))
            v.push_back(d);
    }
    return v;
}

std::string
printfNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

TEST(JsonNumberIo, WriterIsByteEqualToPrintf)
{
    std::size_t mismatches = 0;
    for (const double v : numberCorpus()) {
        const std::string got = runner::jsonNumber(v);
        if (got != printfNumber(v) && ++mismatches <= 10) {
            ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v)
                          << ": " << got << " vs " << printfNumber(v);
        }
    }
    EXPECT_EQ(mismatches, 0u);

    // Appending keeps the prefix and matches the fresh-string form.
    std::string out = "x=";
    runner::appendJsonNumber(out, -1.5e-300);
    EXPECT_EQ(out, "x=" + printfNumber(-1.5e-300));
}

TEST(JsonNumberIo, ReaderIsBitEqualToStrtod)
{
    std::vector<std::string> tokens = {
        "1e999", "-1e999", "1e-400", "-1e-400", "4.9e-324",
        "2.2250738585072011e-308", "-0", "0.1", "0", "1E+2",
        "123456789012345678901234567890"};
    for (const double v : numberCorpus())
        tokens.push_back(printfNumber(v));

    std::size_t mismatches = 0;
    for (const std::string &token : tokens) {
        const std::uint64_t want =
            std::bit_cast<std::uint64_t>(std::strtod(token.c_str(), nullptr));
        const std::uint64_t got =
            std::bit_cast<std::uint64_t>(runner::parseJsonNumber(token));
        // The generic parser reads numbers through the same reader.
        const JsonParse doc = parseJson(token);
        ASSERT_TRUE(doc.ok()) << token;
        const std::uint64_t viaParser =
            std::bit_cast<std::uint64_t>(doc.value->asNumber());
        if ((got != want || viaParser != want) && ++mismatches <= 10)
            ADD_FAILURE() << token << ": " << got << " / " << viaParser
                          << " vs " << want;
    }
    EXPECT_EQ(mismatches, 0u);

    EXPECT_EQ(runner::parseJsonNumber("1e999"),
              std::numeric_limits<double>::infinity());
    EXPECT_EQ(runner::parseJsonNumber("-1e999"),
              -std::numeric_limits<double>::infinity());
    EXPECT_EQ(runner::parseJsonNumber("1e-400"), 0.0);
    EXPECT_TRUE(std::signbit(runner::parseJsonNumber("-0")));
}

TEST(JsonNumberIo, EscapedAndPlainOpSpellingsReplyIdentically)
{
    model::PccsParams p;
    p.normalBw = 38.1;
    p.intensiveBw = 96.2;
    p.mrmc = 4.9;
    p.cbp = 45.3;
    p.tbwdc = 87.2;
    p.rateN = 1.11;
    p.peakBw = 137.0;
    ModelRegistry registry;
    registry.addFromParams("m", p, "test");
    Metrics metrics;
    Dispatcher dispatcher(registry, metrics);

    // Same request twice. The second copy spells the op's 'p' as a
    // unicode escape; the reply must not depend on the spelling.
    const std::string fields =
        "\",\"id\":0.1,\"model\":\"m\",\"demand\":42.123456789012345,"
        "\"external\":17.25e0}";
    const std::string plain = "{\"op\":\"predict" + fields;
    const std::string escaped = "{\"op\":\"\\u0070redict" + fields;
    const FrameBuffer::View frames[] = {{plain}, {escaped}};
    Dispatcher::Scratch scratch;
    dispatcher.handleFrames(frames, 2, scratch);

    ASSERT_EQ(scratch.spans.size(), 2u);
    const std::string first = scratch.wire.substr(
        scratch.spans[0].offset, scratch.spans[0].length);
    const std::string second = scratch.wire.substr(
        scratch.spans[1].offset, scratch.spans[1].length);
    EXPECT_NE(first.find("\"ok\":true"), std::string::npos) << first;
    EXPECT_EQ(first, second);
}

} // namespace
} // namespace pccs::serve

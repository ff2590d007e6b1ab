/**
 * @file
 * A small, dependency-free JSON value type with a strict parser and a
 * compact writer — the wire format of the prediction service.
 *
 * There is one parser, and it is deliberately strict (RFC 8259): no
 * trailing commas, no comments, no leading zeros, no bare control
 * characters inside strings. Parse failures carry a message and the
 * byte offset, and a configurable nesting-depth limit keeps
 * adversarial frames ("[[[[[...") from overflowing the stack.
 *
 * The parser fills a flat, reusable JsonDoc: a node array in document
 * order plus an arena of unescaped string bytes, read through
 * JsonCursor. The serve dispatcher keeps one document per request slot,
 * so its steady-state parse allocates nothing. parseJson() is the same
 * parse materialized into a Json tree, for callers that keep or build
 * values.
 *
 * Objects preserve insertion order and use linear lookup — protocol
 * messages have a handful of keys, so a map would only cost locality.
 */

#ifndef PCCS_SERVE_JSON_HH
#define PCCS_SERVE_JSON_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pccs::serve {

class Json;

/** Array of JSON values. */
using JsonArray = std::vector<Json>;

/** Insertion-ordered object; keys are not deduplicated on insert. */
using JsonObject = std::vector<std::pair<std::string, Json>>;

/** One JSON value (null, bool, number, string, array, or object). */
class Json
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Json() : value_(nullptr) {}
    Json(std::nullptr_t) : value_(nullptr) {}
    Json(bool b) : value_(b) {}
    Json(double v) : value_(v) {}
    Json(int v) : value_(static_cast<double>(v)) {}
    Json(unsigned v) : value_(static_cast<double>(v)) {}
    Json(long v) : value_(static_cast<double>(v)) {}
    Json(unsigned long v) : value_(static_cast<double>(v)) {}
    Json(unsigned long long v) : value_(static_cast<double>(v)) {}
    Json(const char *s) : value_(std::string(s)) {}
    Json(std::string s) : value_(std::move(s)) {}
    Json(JsonArray a) : value_(std::move(a)) {}
    Json(JsonObject o) : value_(std::move(o)) {}

    /** @return an empty array value. */
    static Json array() { return Json(JsonArray{}); }

    /** @return an empty object value. */
    static Json object() { return Json(JsonObject{}); }

    Kind kind() const { return static_cast<Kind>(value_.index()); }

    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isNumber() const { return kind() == Kind::Number; }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isObject() const { return kind() == Kind::Object; }

    /** @return the bool payload, or `fallback` for other kinds. */
    bool asBool(bool fallback = false) const
    {
        return isBool() ? std::get<bool>(value_) : fallback;
    }

    /** @return the number payload, or `fallback` for other kinds. */
    double asNumber(double fallback = 0.0) const
    {
        return isNumber() ? std::get<double>(value_) : fallback;
    }

    /** @return the string payload; empty for other kinds. */
    const std::string &asString() const;

    /** @return the array items; empty for other kinds. */
    const JsonArray &asArray() const;

    /** @return the object members; empty for other kinds. */
    const JsonObject &asObject() const;

    /**
     * @return the value of the first member named `key`, or nullptr
     *         when absent or when this value is not an object.
     */
    const Json *find(std::string_view key) const;

    /** Append/overwrite an object member (makes this an object). */
    void set(std::string key, Json value);

    /** Append an array element (makes this an array). */
    void push(Json value);

    /** Render compactly on one line (never emits raw newlines). */
    std::string dump() const;

    /**
     * Append the compact rendering to `out` (same bytes as dump()).
     * The zero-allocation serve path reuses one output buffer per
     * connection, so the writer must not allocate a fresh string.
     */
    void dumpTo(std::string &out) const;

    /** Structural deep equality (numbers compare by value). */
    bool operator==(const Json &other) const = default;

  private:
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
                 JsonObject>
        value_;
};

/** Knobs bounding what the parser accepts. */
struct JsonLimits
{
    /** Maximum container nesting depth. */
    std::size_t maxDepth = 64;
};

/** Outcome of a parse: a value, or a diagnostic with its offset. */
struct JsonParse
{
    std::optional<Json> value;
    /** Parse diagnostic; empty on success. */
    std::string error;
    /** Byte offset the diagnostic refers to. */
    std::size_t offset = 0;

    bool ok() const { return value.has_value(); }
};

class JsonDoc;

/**
 * Read-only position of one value inside a JsonDoc, with Json's
 * accessor names. A default-constructed cursor is absent (what find()
 * returns for a missing key) and reads as null. Valid while its
 * document is neither reparsed, moved nor destroyed.
 */
class JsonCursor
{
  public:
    JsonCursor() = default;

    /** @return false for an absent cursor. */
    explicit operator bool() const { return doc_ != nullptr; }

    Json::Kind kind() const;

    bool isNull() const { return kind() == Json::Kind::Null; }
    bool isBool() const { return kind() == Json::Kind::Bool; }
    bool isNumber() const { return kind() == Json::Kind::Number; }
    bool isString() const { return kind() == Json::Kind::String; }
    bool isArray() const { return kind() == Json::Kind::Array; }
    bool isObject() const { return kind() == Json::Kind::Object; }

    /** @return the bool payload, or `fallback` for other kinds. */
    bool asBool(bool fallback = false) const;

    /** @return the number payload, or `fallback` for other kinds. */
    double asNumber(double fallback = 0.0) const;

    /** @return the string payload; empty for other kinds. */
    std::string_view asString() const;

    /** @return the item count of an array, the member count of an
     *          object, 0 otherwise. */
    std::size_t size() const;

    /**
     * @return the value of the first member named `key`; absent when
     *         there is none or this value is not an object.
     */
    JsonCursor find(std::string_view key) const;

    /** Forward iteration over an array's items (empty otherwise). */
    class Iterator
    {
      public:
        JsonCursor operator*() const { return {doc_, index_}; }
        Iterator &operator++();
        bool operator==(const Iterator &other) const
        {
            return index_ == other.index_;
        }

      private:
        friend class JsonCursor;
        Iterator(const JsonDoc *doc, std::size_t index)
            : doc_(doc), index_(index)
        {
        }
        const JsonDoc *doc_;
        std::size_t index_;
    };

    Iterator begin() const;
    Iterator end() const;

    /** Append the compact rendering: the bytes Json::dumpTo writes
     *  for the materialized value. */
    void dumpTo(std::string &out) const;

    /** Materialize this value (and its subtree) as a Json tree. */
    Json toJson() const;

  private:
    friend class JsonDoc;
    JsonCursor(const JsonDoc *doc, std::size_t index)
        : doc_(doc), index_(index)
    {
    }

    const JsonDoc *doc_ = nullptr;
    std::size_t index_ = 0;
};

/**
 * One parsed document, flat: every value is a node, in document order,
 * each container followed by its subtree. An object's members are a key
 * node (a String) followed by the value's subtree, in input order, with
 * duplicate keys kept. Strings are stored unescaped in one arena.
 * parse() and clear() keep the capacity of both arrays, so reparsing
 * similar text allocates nothing.
 */
class JsonDoc
{
  public:
    /**
     * Parse one complete JSON document, replacing the previous one.
     * Leading/trailing whitespace is allowed; anything else after the
     * document is an error, and so is a text of 4 GiB or more. On
     * failure the document is empty and error()/errorOffset() hold
     * the diagnostic.
     */
    bool parse(std::string_view text, const JsonLimits &limits = {});

    /** Drop the document, keeping capacity. */
    void clear();

    /** @return the root value; absent when empty. */
    JsonCursor root() const
    {
        return nodeCount_ == 0 ? JsonCursor() : JsonCursor(this, 0);
    }

    /** Diagnostic of the last failed parse. */
    const std::string &error() const { return error_; }
    /** Byte offset the diagnostic refers to. */
    std::size_t errorOffset() const { return errorOffset_; }

  private:
    friend class JsonCursor;
    class Parser;

    struct Node
    {
        /** A number's value; 1 or 0 for a bool. */
        double number = 0.0;
        /** A string's (or key's) bytes in the arena. */
        std::uint32_t strOffset = 0;
        std::uint32_t strLength = 0;
        /** Index one past this node's subtree; for a key, one past
         *  its member (the value's subtree). */
        std::uint32_t end = 0;
        /** Members of an object, items of an array. */
        std::uint32_t count = 0;
        Json::Kind kind = Json::Kind::Null;
    };

    std::string_view string(const Node &n) const
    {
        return {arena_.get() + n.strOffset, n.strLength};
    }

    /** Sized to its capacity; the document is the first nodeCount_. */
    std::vector<Node> nodes_;
    std::size_t nodeCount_ = 0;
    /** Unescaped string bytes; sized to the longest text parsed
     *  (unescaping never writes more bytes than it consumes). */
    std::unique_ptr<char[]> arena_;
    std::size_t arenaCapacity_ = 0;
    std::string error_;
    std::size_t errorOffset_ = 0;
};

inline Json::Kind
JsonCursor::kind() const
{
    return doc_ != nullptr ? doc_->nodes_[index_].kind : Json::Kind::Null;
}

inline bool
JsonCursor::asBool(bool fallback) const
{
    return isBool() ? doc_->nodes_[index_].number != 0.0 : fallback;
}

inline double
JsonCursor::asNumber(double fallback) const
{
    return isNumber() ? doc_->nodes_[index_].number : fallback;
}

inline std::string_view
JsonCursor::asString() const
{
    return isString() ? doc_->string(doc_->nodes_[index_])
                      : std::string_view();
}

inline JsonCursor
JsonCursor::find(std::string_view key) const
{
    if (!isObject())
        return {};
    const JsonDoc::Node *nodes = doc_->nodes_.data();
    const char *arena = doc_->arena_.get();
    // Members: a key node at k, its value's subtree from k + 1.
    for (std::size_t k = index_ + 1; k < nodes[index_].end;
         k = nodes[k].end) {
        if (nodes[k].strLength == key.size() &&
            std::equal(key.begin(), key.end(), arena + nodes[k].strOffset))
            return {doc_, k + 1};
    }
    return {};
}

inline JsonCursor::Iterator &
JsonCursor::Iterator::operator++()
{
    index_ = doc_->nodes_[index_].end;
    return *this;
}

/**
 * Parse one complete JSON document into a Json tree (a JsonDoc parse,
 * materialized). Leading/trailing whitespace is allowed; anything else
 * after the document is an error.
 */
JsonParse parseJson(std::string_view text, const JsonLimits &limits = {});

} // namespace pccs::serve

#endif // PCCS_SERVE_JSON_HH

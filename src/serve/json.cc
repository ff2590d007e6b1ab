#include "json.hh"

#include <limits>

#include "runner/run_spec.hh"

namespace pccs::serve {

const std::string &
Json::asString() const
{
    static const std::string empty;
    return isString() ? std::get<std::string>(value_) : empty;
}

const JsonArray &
Json::asArray() const
{
    static const JsonArray empty;
    return isArray() ? std::get<JsonArray>(value_) : empty;
}

const JsonObject &
Json::asObject() const
{
    static const JsonObject empty;
    return isObject() ? std::get<JsonObject>(value_) : empty;
}

const Json *
Json::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[k, v] : std::get<JsonObject>(value_)) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

void
Json::set(std::string key, Json value)
{
    if (!isObject())
        value_ = JsonObject{};
    auto &members = std::get<JsonObject>(value_);
    for (auto &[k, v] : members) {
        if (k == key) {
            v = std::move(value);
            return;
        }
    }
    members.emplace_back(std::move(key), std::move(value));
}

void
Json::push(Json value)
{
    if (!isArray())
        value_ = JsonArray{};
    std::get<JsonArray>(value_).push_back(std::move(value));
}

namespace {

void
dumpTo(const Json &v, std::string &out)
{
    switch (v.kind()) {
      case Json::Kind::Null:
        out += "null";
        break;
      case Json::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case Json::Kind::Number:
        runner::appendJsonNumber(out, v.asNumber());
        break;
      case Json::Kind::String:
        out += '"';
        runner::appendJsonEscaped(out, v.asString());
        out += '"';
        break;
      case Json::Kind::Array: {
        out += '[';
        bool first = true;
        for (const Json &item : v.asArray()) {
            if (!first)
                out += ',';
            first = false;
            dumpTo(item, out);
        }
        out += ']';
        break;
      }
      case Json::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[key, value] : v.asObject()) {
            if (!first)
                out += ',';
            first = false;
            out += '"';
            runner::appendJsonEscaped(out, key);
            out += "\":";
            dumpTo(value, out);
        }
        out += '}';
        break;
      }
    }
}

} // namespace

std::string
Json::dump() const
{
    std::string out;
    ::pccs::serve::dumpTo(*this, out);
    return out;
}

void
Json::dumpTo(std::string &out) const
{
    ::pccs::serve::dumpTo(*this, out);
}

/** Strict recursive-descent parser filling a JsonDoc. */
class JsonDoc::Parser
{
  public:
    /** The arena must hold text.size() bytes. */
    Parser(std::string_view text, const JsonLimits &limits, JsonDoc &doc)
        : text_(text), limits_(limits), doc_(doc),
          arena_(doc.arena_.get())
    {
    }

    bool parse()
    {
        if (!parseValue(0))
            return false;
        skipWhitespace();
        if (pos_ != text_.size())
            return fail("trailing characters after the document");
        return true;
    }

  private:
    bool fail(const char *message)
    {
        // Keep the first (innermost) diagnostic.
        if (doc_.error_.empty()) {
            doc_.error_ = message;
            doc_.errorOffset_ = pos_;
        }
        return false;
    }

    bool failAt(std::size_t offset, const char *message)
    {
        pos_ = offset;
        return fail(message);
    }

    /** Append a node (a leaf's end is the next index). Indices and
     *  offsets fit 32 bits: parse() bounds the text. */
    std::size_t push(Json::Kind kind, double number = 0.0,
                     std::size_t strOffset = 0, std::size_t strLength = 0)
    {
        const std::size_t index = doc_.nodeCount_;
        if (index == doc_.nodes_.size()) [[unlikely]]
            grow();
        doc_.nodes_[index] = {number, static_cast<std::uint32_t>(strOffset),
                              static_cast<std::uint32_t>(strLength),
                              static_cast<std::uint32_t>(index + 1), 0, kind};
        doc_.nodeCount_ = index + 1;
        return index;
    }

    [[gnu::noinline]] void grow()
    {
        doc_.nodes_.resize(2 * doc_.nodes_.size() + 16);
    }

    /** Close container `index` over the nodes pushed since. */
    bool close(std::size_t index, std::size_t count)
    {
        Node &n = doc_.nodes_[index];
        n.end = static_cast<std::uint32_t>(doc_.nodeCount_);
        n.count = static_cast<std::uint32_t>(count);
        return true;
    }

    void skipWhitespace()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool atEnd() const { return pos_ >= text_.size(); }

    char peek() const { return text_[pos_]; }

    bool consumeLiteral(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail("invalid literal");
        pos_ += word.size();
        return true;
    }

    bool parseValue(std::size_t depth)
    {
        skipWhitespace();
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
          case 'n':
            if (!consumeLiteral("null"))
                return false;
            push(Json::Kind::Null);
            return true;
          case 't':
            if (!consumeLiteral("true"))
                return false;
            push(Json::Kind::Bool, 1.0);
            return true;
          case 'f':
            if (!consumeLiteral("false"))
                return false;
            push(Json::Kind::Bool, 0.0);
            return true;
          case '"':
            return parseStringNode();
          case '[':
            return parseArray(depth);
          case '{':
            return parseObject(depth);
          default:
            return parseNumber();
        }
    }

    bool parseArray(std::size_t depth)
    {
        if (depth >= limits_.maxDepth)
            return fail("nesting depth limit exceeded");
        ++pos_; // '['
        const std::size_t self = push(Json::Kind::Array);
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            return close(self, 0);
        }
        for (std::size_t count = 1;; ++count) {
            if (!parseValue(depth + 1))
                return false;
            skipWhitespace();
            if (atEnd())
                return fail("unterminated array");
            const char c = text_[pos_];
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return close(self, count);
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool parseObject(std::size_t depth)
    {
        if (depth >= limits_.maxDepth)
            return fail("nesting depth limit exceeded");
        ++pos_; // '{'
        const std::size_t self = push(Json::Kind::Object);
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            return close(self, 0);
        }
        for (std::size_t count = 1;; ++count) {
            skipWhitespace();
            if (atEnd() || peek() != '"')
                return fail("expected a string key in object");
            const std::size_t key = doc_.nodeCount_;
            if (!parseStringNode())
                return false;
            skipWhitespace();
            if (atEnd() || peek() != ':')
                return fail("expected ':' after object key");
            ++pos_;
            if (!parseValue(depth + 1))
                return false;
            // The key's end spans its member, so lookups step from key
            // to key.
            doc_.nodes_[key].end =
                static_cast<std::uint32_t>(doc_.nodeCount_);
            skipWhitespace();
            if (atEnd())
                return fail("unterminated object");
            const char c = text_[pos_];
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return close(self, count);
            }
            return fail("expected ',' or '}' in object");
        }
    }

    static char *writeUtf8(char *out, unsigned cp)
    {
        if (cp < 0x80) {
            *out++ = static_cast<char>(cp);
        } else if (cp < 0x800) {
            *out++ = static_cast<char>(0xC0 | (cp >> 6));
            *out++ = static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            *out++ = static_cast<char>(0xE0 | (cp >> 12));
            *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *out++ = static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            *out++ = static_cast<char>(0xF0 | (cp >> 18));
            *out++ = static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            *out++ = static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            *out++ = static_cast<char>(0x80 | (cp & 0x3F));
        }
        return out;
    }

    bool parseHex4(unsigned &out)
    {
        if (pos_ + 4 > text_.size())
            return fail("truncated \\u escape");
        unsigned v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        pos_ += 4;
        out = v;
        return true;
    }

    /** A string value or key: unescaped into the arena, one node. */
    bool parseStringNode()
    {
        ++pos_; // opening quote
        char *out = arena_ + used_;
        while (true) {
            // Plain bytes copy straight through (locals: the char
            // stores may alias any member).
            const char *const text = text_.data();
            const std::size_t size = text_.size();
            std::size_t i = pos_;
            while (i < size) {
                const char c = text[i];
                if (c == '"' || c == '\\' ||
                    static_cast<unsigned char>(c) < 0x20)
                    break;
                *out++ = c;
                ++i;
            }
            pos_ = i;
            if (atEnd())
                return fail("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                const std::size_t end = static_cast<std::size_t>(out - arena_);
                push(Json::Kind::String, 0.0, used_, end - used_);
                used_ = end;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            ++pos_; // backslash
            if (atEnd())
                return fail("unterminated escape");
            const char e = text_[pos_];
            ++pos_;
            switch (e) {
              case '"':
                *out++ = '"';
                break;
              case '\\':
                *out++ = '\\';
                break;
              case '/':
                *out++ = '/';
                break;
              case 'b':
                *out++ = '\b';
                break;
              case 'f':
                *out++ = '\f';
                break;
              case 'n':
                *out++ = '\n';
                break;
              case 'r':
                *out++ = '\r';
                break;
              case 't':
                *out++ = '\t';
                break;
              case 'u': {
                unsigned cp = 0;
                if (!parseHex4(cp))
                    return false;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: a low surrogate must follow.
                    if (pos_ + 2 > text_.size() ||
                        text_[pos_] != '\\' || text_[pos_ + 1] != 'u')
                        return fail("unpaired high surrogate");
                    pos_ += 2;
                    unsigned low = 0;
                    if (!parseHex4(low))
                        return false;
                    if (low < 0xDC00 || low > 0xDFFF)
                        return fail("invalid low surrogate");
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (low - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    return fail("unpaired low surrogate");
                }
                out = writeUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape character");
            }
        }
    }

    bool parseNumber()
    {
        const std::size_t start = pos_;
        if (!atEnd() && peek() == '-')
            ++pos_;
        // Integer part: one zero, or a nonzero digit run (RFC 8259
        // forbids leading zeros).
        if (atEnd() || !isDigit(peek()))
            return failAt(start, "invalid value");
        if (peek() == '0') {
            ++pos_;
        } else {
            while (!atEnd() && isDigit(peek()))
                ++pos_;
        }
        if (!atEnd() && peek() == '.') {
            ++pos_;
            if (atEnd() || !isDigit(peek()))
                return failAt(start, "digits required after '.'");
            while (!atEnd() && isDigit(peek()))
                ++pos_;
        }
        if (!atEnd() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!atEnd() && (peek() == '+' || peek() == '-'))
                ++pos_;
            if (atEnd() || !isDigit(peek()))
                return failAt(start, "digits required in exponent");
            while (!atEnd() && isDigit(peek()))
                ++pos_;
        }
        if (!atEnd() && isDigit(peek()))
            return failAt(start, "number with a leading zero");
        push(Json::Kind::Number,
             runner::parseJsonNumber(text_.substr(start, pos_ - start)));
        return true;
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    std::string_view text_;
    JsonLimits limits_;
    JsonDoc &doc_;
    char *arena_;
    std::size_t used_ = 0;
    std::size_t pos_ = 0;
};

void
JsonDoc::clear()
{
    nodeCount_ = 0;
    error_.clear();
    errorOffset_ = 0;
}

bool
JsonDoc::parse(std::string_view text, const JsonLimits &limits)
{
    clear();
    if (text.size() >= std::numeric_limits<std::uint32_t>::max()) {
        error_ = "document too large";
        return false;
    }
    if (arenaCapacity_ < text.size()) {
        arena_ = std::make_unique_for_overwrite<char[]>(text.size());
        arenaCapacity_ = text.size();
    }
    if (Parser(text, limits, *this).parse())
        return true;
    nodeCount_ = 0;
    return false;
}

std::size_t
JsonCursor::size() const
{
    return isArray() || isObject() ? doc_->nodes_[index_].count : 0;
}

JsonCursor::Iterator
JsonCursor::begin() const
{
    return {doc_, isArray() ? index_ + 1 : index_};
}

JsonCursor::Iterator
JsonCursor::end() const
{
    return {doc_, isArray() ? doc_->nodes_[index_].end : index_};
}

void
JsonCursor::dumpTo(std::string &out) const
{
    switch (kind()) {
      case Json::Kind::Null:
        out += "null";
        break;
      case Json::Kind::Bool:
        out += asBool() ? "true" : "false";
        break;
      case Json::Kind::Number:
        runner::appendJsonNumber(out, asNumber());
        break;
      case Json::Kind::String:
        out += '"';
        runner::appendJsonEscaped(out, asString());
        out += '"';
        break;
      case Json::Kind::Array: {
        out += '[';
        bool first = true;
        for (const JsonCursor item : *this) {
            if (!first)
                out += ',';
            first = false;
            item.dumpTo(out);
        }
        out += ']';
        break;
      }
      case Json::Kind::Object: {
        out += '{';
        const std::vector<JsonDoc::Node> &nodes = doc_->nodes_;
        for (std::size_t k = index_ + 1; k < nodes[index_].end;
             k = nodes[k].end) {
            if (k != index_ + 1)
                out += ',';
            out += '"';
            runner::appendJsonEscaped(out, doc_->string(nodes[k]));
            out += "\":";
            JsonCursor(doc_, k + 1).dumpTo(out);
        }
        out += '}';
        break;
      }
    }
}

Json
JsonCursor::toJson() const
{
    switch (kind()) {
      case Json::Kind::Null:
        return Json();
      case Json::Kind::Bool:
        return Json(asBool());
      case Json::Kind::Number:
        return Json(asNumber());
      case Json::Kind::String:
        return Json(std::string(asString()));
      case Json::Kind::Array: {
        JsonArray items;
        items.reserve(size());
        for (const JsonCursor item : *this)
            items.push_back(item.toJson());
        return Json(std::move(items));
      }
      case Json::Kind::Object: {
        JsonObject members;
        members.reserve(size());
        const std::vector<JsonDoc::Node> &nodes = doc_->nodes_;
        for (std::size_t k = index_ + 1; k < nodes[index_].end;
             k = nodes[k].end)
            members.emplace_back(std::string(doc_->string(nodes[k])),
                                 JsonCursor(doc_, k + 1).toJson());
        return Json(std::move(members));
      }
    }
    return Json();
}

JsonParse
parseJson(std::string_view text, const JsonLimits &limits)
{
    JsonDoc doc;
    JsonParse result;
    if (doc.parse(text, limits)) {
        result.value = doc.root().toJson();
    } else {
        result.error = doc.error();
        result.offset = doc.errorOffset();
    }
    return result;
}

} // namespace pccs::serve

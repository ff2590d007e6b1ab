#include "json.hh"

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

/** Recursive-descent parser over a string_view. */
class Parser
{
  public:
    Parser(std::string_view text, const JsonLimits &limits)
        : text_(text), limits_(limits)
    {
    }

    JsonParse parse()
    {
        JsonParse result;
        Json value;
        if (!parseValue(value, 0)) {
            result.error = error_;
            result.offset = errorOffset_;
            return result;
        }
        skipWhitespace();
        if (pos_ != text_.size()) {
            result.error = "trailing characters after the document";
            result.offset = pos_;
            return result;
        }
        result.value = std::move(value);
        return result;
    }

  private:
    bool fail(std::string message)
    {
        // Keep the first (innermost) diagnostic.
        if (error_.empty()) {
            error_ = std::move(message);
            errorOffset_ = pos_;
        }
        return false;
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

    bool parseValue(Json &out, std::size_t depth)
    {
        skipWhitespace();
        if (atEnd())
            return fail("unexpected end of input");
        switch (peek()) {
          case 'n':
            if (!consumeLiteral("null"))
                return false;
            out = Json();
            return true;
          case 't':
            if (!consumeLiteral("true"))
                return false;
            out = Json(true);
            return true;
          case 'f':
            if (!consumeLiteral("false"))
                return false;
            out = Json(false);
            return true;
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out = Json(std::move(s));
            return true;
          }
          case '[':
            return parseArray(out, depth);
          case '{':
            return parseObject(out, depth);
          default:
            return parseNumber(out);
        }
    }

    bool parseArray(Json &out, std::size_t depth)
    {
        if (depth >= limits_.maxDepth)
            return fail("nesting depth limit exceeded");
        ++pos_; // '['
        JsonArray items;
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            out = Json(std::move(items));
            return true;
        }
        while (true) {
            Json item;
            if (!parseValue(item, depth + 1))
                return false;
            items.push_back(std::move(item));
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
                out = Json(std::move(items));
                return true;
            }
            return fail("expected ',' or ']' in array");
        }
    }

    bool parseObject(Json &out, std::size_t depth)
    {
        if (depth >= limits_.maxDepth)
            return fail("nesting depth limit exceeded");
        ++pos_; // '{'
        JsonObject members;
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            out = Json(std::move(members));
            return true;
        }
        while (true) {
            skipWhitespace();
            if (atEnd() || peek() != '"')
                return fail("expected a string key in object");
            std::string key;
            if (!parseString(key))
                return false;
            skipWhitespace();
            if (atEnd() || peek() != ':')
                return fail("expected ':' after object key");
            ++pos_;
            Json value;
            if (!parseValue(value, depth + 1))
                return false;
            members.emplace_back(std::move(key), std::move(value));
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
                out = Json(std::move(members));
                return true;
            }
            return fail("expected ',' or '}' in object");
        }
    }

    static void appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
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

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (atEnd())
                return fail("unterminated string");
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += static_cast<char>(c);
                ++pos_;
                continue;
            }
            ++pos_; // backslash
            if (atEnd())
                return fail("unterminated escape");
            const char e = text_[pos_];
            ++pos_;
            switch (e) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'n':
                out += '\n';
                break;
              case 'r':
                out += '\r';
                break;
              case 't':
                out += '\t';
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
                appendUtf8(out, cp);
                break;
              }
              default:
                return fail("unknown escape character");
            }
        }
    }

    bool parseNumber(Json &out)
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
        out = Json(
            runner::parseJsonNumber(text_.substr(start, pos_ - start)));
        return true;
    }

    static bool isDigit(char c) { return c >= '0' && c <= '9'; }

    bool failAt(std::size_t offset, std::string message)
    {
        pos_ = offset;
        return fail(std::move(message));
    }

    std::string_view text_;
    JsonLimits limits_;
    std::size_t pos_ = 0;
    std::string error_;
    std::size_t errorOffset_ = 0;
};

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

JsonParse
parseJson(std::string_view text, const JsonLimits &limits)
{
    return Parser(text, limits).parse();
}

} // namespace pccs::serve

#include "util/json.hpp"

#include <cctype>
#include <cstdlib>
#include <sstream>

namespace kodan::util::json {

const Value *
Value::find(const std::string &key) const
{
    for (const auto &[name, value] : members_) {
        if (name == key) {
            return &value;
        }
    }
    return nullptr;
}

double
Value::numberOr(const std::string &key, double fallback) const
{
    const Value *value = find(key);
    return value != nullptr && value->isNumber() ? value->asNumber()
                                                 : fallback;
}

std::string
Value::stringOr(const std::string &key, const std::string &fallback) const
{
    const Value *value = find(key);
    return value != nullptr && value->isString() ? value->asString()
                                                 : fallback;
}

Value
Value::makeBool(bool v)
{
    Value value;
    value.kind_ = Kind::Bool;
    value.bool_ = v;
    return value;
}

Value
Value::makeNumber(double v)
{
    Value value;
    value.kind_ = Kind::Number;
    value.number_ = v;
    return value;
}

Value
Value::makeString(std::string v)
{
    Value value;
    value.kind_ = Kind::String;
    value.string_ = std::move(v);
    return value;
}

Value
Value::makeArray(std::vector<Value> v)
{
    Value value;
    value.kind_ = Kind::Array;
    value.array_ = std::move(v);
    return value;
}

Value
Value::makeObject(std::vector<std::pair<std::string, Value>> v)
{
    Value value;
    value.kind_ = Kind::Object;
    value.members_ = std::move(v);
    return value;
}

namespace {

/** Recursive-descent parser over a byte range. */
class Parser
{
  public:
    Parser(const std::string &text)
        : text_(text)
    {
    }

    bool parseDocument(Value &out, std::string *error)
    {
        skipWhitespace();
        if (!parseValue(out)) {
            report(error);
            return false;
        }
        skipWhitespace();
        if (pos_ != text_.size()) {
            fail("trailing characters after document");
            report(error);
            return false;
        }
        return true;
    }

  private:
    const std::string &text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    std::string message_;
    std::size_t error_pos_ = 0;

    void fail(const std::string &message)
    {
        if (message_.empty()) {
            message_ = message;
            error_pos_ = pos_;
        }
    }

    void report(std::string *error) const
    {
        if (error != nullptr) {
            std::ostringstream os;
            os << message_ << " at byte " << error_pos_;
            *error = os.str();
        }
    }

    bool atEnd() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void skipWhitespace()
    {
        while (!atEnd() && (peek() == ' ' || peek() == '\t' ||
                            peek() == '\n' || peek() == '\r')) {
            ++pos_;
        }
    }

    bool consumeLiteral(const char *literal)
    {
        std::size_t i = 0;
        while (literal[i] != '\0') {
            if (pos_ + i >= text_.size() || text_[pos_ + i] != literal[i]) {
                fail(std::string("expected '") + literal + "'");
                return false;
            }
            ++i;
        }
        pos_ += i;
        return true;
    }

    bool parseValue(Value &out)
    {
        if (atEnd()) {
            fail("unexpected end of input");
            return false;
        }
        switch (peek()) {
          case '{':
          case '[': {
            if (depth_ == kMaxDepth) {
                fail("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
                return false;
            }
            ++depth_;
            const bool ok =
                peek() == '{' ? parseObject(out) : parseArray(out);
            --depth_;
            return ok;
          }
          case '"': {
            std::string text;
            if (!parseString(text)) {
                return false;
            }
            out = Value::makeString(std::move(text));
            return true;
          }
          case 't':
            if (!consumeLiteral("true")) {
                return false;
            }
            out = Value::makeBool(true);
            return true;
          case 'f':
            if (!consumeLiteral("false")) {
                return false;
            }
            out = Value::makeBool(false);
            return true;
          case 'n':
            if (!consumeLiteral("null")) {
                return false;
            }
            out = Value::makeNull();
            return true;
          default:
            return parseNumber(out);
        }
    }

    bool parseObject(Value &out)
    {
        ++pos_; // '{'
        std::vector<std::pair<std::string, Value>> members;
        skipWhitespace();
        if (!atEnd() && peek() == '}') {
            ++pos_;
            out = Value::makeObject(std::move(members));
            return true;
        }
        while (true) {
            skipWhitespace();
            if (atEnd() || peek() != '"') {
                fail("expected object key string");
                return false;
            }
            std::string key;
            if (!parseString(key)) {
                return false;
            }
            skipWhitespace();
            if (atEnd() || peek() != ':') {
                fail("expected ':' after object key");
                return false;
            }
            ++pos_;
            skipWhitespace();
            Value value;
            if (!parseValue(value)) {
                return false;
            }
            members.emplace_back(std::move(key), std::move(value));
            skipWhitespace();
            if (!atEnd() && peek() == ',') {
                ++pos_;
                continue;
            }
            if (!atEnd() && peek() == '}') {
                ++pos_;
                out = Value::makeObject(std::move(members));
                return true;
            }
            fail("expected ',' or '}' in object");
            return false;
        }
    }

    bool parseArray(Value &out)
    {
        ++pos_; // '['
        std::vector<Value> elements;
        skipWhitespace();
        if (!atEnd() && peek() == ']') {
            ++pos_;
            out = Value::makeArray(std::move(elements));
            return true;
        }
        while (true) {
            skipWhitespace();
            Value element;
            if (!parseValue(element)) {
                return false;
            }
            elements.push_back(std::move(element));
            skipWhitespace();
            if (!atEnd() && peek() == ',') {
                ++pos_;
                continue;
            }
            if (!atEnd() && peek() == ']') {
                ++pos_;
                out = Value::makeArray(std::move(elements));
                return true;
            }
            fail("expected ',' or ']' in array");
            return false;
        }
    }

    /** Append @p codepoint to @p out as UTF-8. */
    static void appendUtf8(std::string &out, unsigned codepoint)
    {
        if (codepoint < 0x80) {
            out += static_cast<char>(codepoint);
        } else if (codepoint < 0x800) {
            out += static_cast<char>(0xC0 | (codepoint >> 6));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        } else if (codepoint < 0x10000) {
            out += static_cast<char>(0xE0 | (codepoint >> 12));
            out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (codepoint >> 18));
            out += static_cast<char>(0x80 | ((codepoint >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((codepoint >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (codepoint & 0x3F));
        }
    }

    bool parseString(std::string &out)
    {
        ++pos_; // opening quote
        out.clear();
        while (true) {
            if (atEnd()) {
                fail("unterminated string");
                return false;
            }
            const char c = text_[pos_++];
            if (c == '"') {
                return true;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (atEnd()) {
                fail("unterminated escape");
                return false;
            }
            const char escape = text_[pos_++];
            switch (escape) {
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
                if (pos_ + 4 > text_.size()) {
                    fail("truncated \\u escape");
                    return false;
                }
                unsigned codepoint = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    codepoint <<= 4;
                    if (h >= '0' && h <= '9') {
                        codepoint |= static_cast<unsigned>(h - '0');
                    } else if (h >= 'a' && h <= 'f') {
                        codepoint |= static_cast<unsigned>(h - 'a' + 10);
                    } else if (h >= 'A' && h <= 'F') {
                        codepoint |= static_cast<unsigned>(h - 'A' + 10);
                    } else {
                        fail("bad hex digit in \\u escape");
                        return false;
                    }
                }
                appendUtf8(out, codepoint);
                break;
              }
              default:
                fail("unknown escape character");
                return false;
            }
        }
    }

    bool parseNumber(Value &out)
    {
        const std::size_t start = pos_;
        if (!atEnd() && (peek() == '-' || peek() == '+')) {
            ++pos_;
        }
        while (!atEnd() &&
               (std::isdigit(static_cast<unsigned char>(peek())) != 0 ||
                peek() == '.' || peek() == 'e' || peek() == 'E' ||
                peek() == '+' || peek() == '-')) {
            ++pos_;
        }
        if (pos_ == start) {
            fail("expected a value");
            return false;
        }
        const std::string token = text_.substr(start, pos_ - start);
        char *end = nullptr;
        const double number = std::strtod(token.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            pos_ = start;
            fail("malformed number");
            return false;
        }
        out = Value::makeNumber(number);
        return true;
    }
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string *error)
{
    Parser parser(text);
    return parser.parseDocument(out, error);
}

bool
parseLines(const std::string &text, std::vector<Value> &out,
           std::string *error)
{
    out.clear();
    std::istringstream stream(text);
    std::string line;
    std::size_t line_number = 0;
    while (std::getline(stream, line)) {
        ++line_number;
        bool blank = true;
        for (const char c : line) {
            if (c != ' ' && c != '\t' && c != '\r') {
                blank = false;
                break;
            }
        }
        if (blank) {
            continue;
        }
        Value value;
        std::string line_error;
        if (!parse(line, value, &line_error)) {
            if (error != nullptr) {
                std::ostringstream os;
                os << "line " << line_number << ": " << line_error;
                *error = os.str();
            }
            return false;
        }
        out.push_back(std::move(value));
    }
    return true;
}

} // namespace kodan::util::json

/**
 * @file
 * Minimal in-tree JSON reader.
 *
 * Just enough of RFC 8259 for the repo's own machine-readable outputs
 * (metrics snapshots, Chrome traces, journal JSONL, bench run files):
 * objects, arrays, strings with the escapes our writers emit, numbers,
 * booleans, and null. Object members preserve document order, so a
 * parse/serialize round trip can check field ordering. No external
 * dependency — the toolchain image is what it is.
 *
 * Not a validator of exotic inputs: numbers are parsed with strtod
 * (doubles only; integers above 2^53 lose precision), \uXXXX escapes
 * are decoded to UTF-8, and duplicate keys are kept as-is. Hostile
 * inputs fail to parse instead of exhausting the stack: arrays and
 * objects nested deeper than kMaxDepth are rejected.
 */

#ifndef KODAN_UTIL_JSON_HPP
#define KODAN_UTIL_JSON_HPP

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace kodan::util::json {

/** Deepest array/object nesting parse() accepts. The repo's own
 *  documents nest at most 4 levels; the parser recurses once per
 *  level, so this bounds its stack use. */
constexpr int kMaxDepth = 256;

/** One parsed JSON value (a tree; children owned by value). */
class Value
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Value() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Value accessors; reading the wrong kind returns the default. */
    bool asBool() const { return kind_ == Kind::Bool && bool_; }
    double asNumber() const { return kind_ == Kind::Number ? number_ : 0.0; }
    const std::string &asString() const { return string_; }

    /** Array elements (empty unless isArray()). */
    const std::vector<Value> &array() const { return array_; }

    /** Object members in document order (empty unless isObject()). */
    const std::vector<std::pair<std::string, Value>> &members() const
    {
        return members_;
    }

    /** First member named @p key, or nullptr. */
    const Value *find(const std::string &key) const;

    /** Member @p key as a number, or @p fallback when absent/mistyped. */
    double numberOr(const std::string &key, double fallback) const;

    /** Member @p key as a string, or @p fallback when absent/mistyped. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

    static Value makeNull() { return Value(); }
    static Value makeBool(bool v);
    static Value makeNumber(double v);
    static Value makeString(std::string v);
    static Value makeArray(std::vector<Value> v);
    static Value makeObject(std::vector<std::pair<std::string, Value>> v);

  private:
    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<Value> array_;
    std::vector<std::pair<std::string, Value>> members_;
};

/**
 * The one checked integer read: member @p key of @p object as a T. An
 * absent member reads @p absent. A present member must be a number that
 * is integral and inside T (NaN and the infinities fail both tests);
 * any other member, a string or null included, fails the read: the
 * result is empty.
 */
template <class T>
std::optional<T>
integerMember(const Value &object, const std::string &key, T absent = 0)
{
    const Value *member = object.find(key);
    if (member == nullptr) {
        return absent;
    }
    if (!member->isNumber()) {
        return std::nullopt;
    }
    const double value = member->asNumber();
    const double limit = std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (std::trunc(value) == value &&
        value >= (std::is_signed_v<T> ? -limit : 0.0) && value < limit) {
        return static_cast<T>(value);
    }
    return std::nullopt;
}

/**
 * Parse one JSON document from @p text.
 *
 * @param text The complete document (leading/trailing whitespace ok).
 * @param out Receives the parsed tree on success.
 * @param error When non-null, receives a one-line description with the
 *        byte offset on failure.
 * @return true when the whole text parsed as a single JSON value.
 */
bool parse(const std::string &text, Value &out, std::string *error = nullptr);

/**
 * Parse a JSON-Lines document: one JSON value per non-empty line.
 *
 * @return true when every non-empty line parsed; on failure @p error
 *         (when non-null) names the first offending 1-based line.
 */
bool parseLines(const std::string &text, std::vector<Value> &out,
                std::string *error = nullptr);

} // namespace kodan::util::json

#endif // KODAN_UTIL_JSON_HPP

/**
 * @file
 * Minimal JSON parser for reading back campaign reports.
 *
 * Counterpart of JsonWriter (json.hh): parses the deterministic documents
 * the simulator writes. Every value remembers its [begin, end) byte span
 * in the source text, so callers that must reproduce a subtree
 * byte-identically (campaign --resume splices cached run results
 * verbatim) can copy the original text instead of re-serializing —
 * re-serialization of doubles could disturb the last printed digit.
 *
 * Deliberately small: objects as insertion-ordered vectors (the writer
 * emits deterministic key order), numbers kept both as double and as raw
 * text (so 64-bit integers such as seeds survive exactly). String escapes
 * decode fully — including \uXXXX to UTF-8 with surrogate pairs — via
 * jsonUnescape(), the exact inverse of JsonWriter's escaper.
 */

#ifndef MONDRIAN_COMMON_JSON_PARSE_HH
#define MONDRIAN_COMMON_JSON_PARSE_HH

#include <charconv>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

namespace mondrian {

/** One parsed JSON value (tree node). */
struct JsonValue
{
    enum class Kind
    {
        kNull,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject
    };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string text; ///< string value, or raw number literal
    std::vector<JsonValue> items;                            ///< array
    std::vector<std::pair<std::string, JsonValue>> members;  ///< object
    std::size_t begin = 0; ///< byte offset of this value in the source
    std::size_t end = 0;   ///< one past the value's last byte

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    bool isObject() const { return kind == Kind::kObject; }
    bool isArray() const { return kind == Kind::kArray; }
    bool isNumber() const { return kind == Kind::kNumber; }
    bool isString() const { return kind == Kind::kString; }

    /** Number as u64, parsed from the raw literal (exact for integers). */
    std::uint64_t asU64() const;
    /** Number as double (0.0 for null — the writer's non-finite marker). */
    double asDouble() const;
    /** String value ("" when not a string). */
    const std::string &asString() const;
};

// Typed reads: asU64()/asDouble() alone would read a wrong-typed member
// (a string seed) as 0, which is another grid point. Each is false when
// @p v is absent or of the wrong type.

inline bool
readString(const JsonValue *v, std::string &dst)
{
    if (!v || !v->isString())
        return false;
    dst = v->asString();
    return true;
}

/** A non-negative integer literal that fits @p dst's type: no sign, no
 *  fraction or exponent, no overflow. */
template <typename T>
bool
readUint(const JsonValue *v, T &dst)
{
    std::uint64_t u = 0;
    if (!v || !v->isNumber() || v->text.empty() ||
        v->text.find_first_not_of("0123456789") != std::string::npos ||
        std::from_chars(v->text.data(), v->text.data() + v->text.size(), u)
                .ec != std::errc{} ||
        u > static_cast<std::uint64_t>(std::numeric_limits<T>::max()))
        return false;
    dst = static_cast<T>(u);
    return true;
}

inline bool
readNumber(const JsonValue *v, double &dst)
{
    if (!v || !v->isNumber())
        return false;
    dst = v->asDouble();
    return true;
}

/** Typed member reads of one object; a failure names its member. */
struct MemberReader
{
    const JsonValue &obj;
    std::string &error;
    std::string prefix = ""; ///< names the object inside its parent

    bool
    fail(const std::string &member)
    {
        error = "missing or wrong-typed \"" + prefix + member + "\"";
        return false;
    }
    bool
    str(const char *member, std::string &dst)
    {
        return readString(obj.find(member), dst) || fail(member);
    }
    template <typename T>
    bool
    uint(const char *member, T &dst)
    {
        return readUint(obj.find(member), dst) || fail(member);
    }
    /** An optional unsigned member: absent leaves @p dst as it is. */
    template <typename T>
    bool
    optUint(const char *member, T &dst)
    {
        return !obj.find(member) || uint(member, dst);
    }
    /** With @p null_ok, also the writer's null marker for a non-finite
     *  value, read back as NaN (so it is written as null again). */
    bool
    number(const char *member, double &dst, bool null_ok = false)
    {
        const JsonValue *v = obj.find(member);
        if (null_ok && v && v->kind == JsonValue::Kind::kNull)
            dst = std::numeric_limits<double>::quiet_NaN();
        else if (!readNumber(v, dst))
            return fail(member);
        return true;
    }
};

/**
 * Parse @p text into @p out.
 * @return true on success; false with a human-readable @p error otherwise.
 */
bool parseJson(const std::string &text, JsonValue &out, std::string &error);

/**
 * Decode the escaped body of a JSON string (the characters between the
 * quotes) into UTF-8. Handles the simple escapes (\" \\ \/ \n \t \r \b
 * \f) and \uXXXX — including surrogate pairs, which encode as one
 * code point — making it the exact inverse of JsonWriter's escaper.
 * @return false with @p error set on malformed escapes (dangling
 * backslash, bad hex, unpaired surrogates).
 */
bool jsonUnescape(const std::string &body, std::string &out,
                  std::string &error);

} // namespace mondrian

#endif // MONDRIAN_COMMON_JSON_PARSE_HH

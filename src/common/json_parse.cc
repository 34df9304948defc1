#include "common/json_parse.hh"

#include <cctype>
#include <charconv>

namespace mondrian {

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::kObject)
        return nullptr;
    for (const auto &[k, v] : members) {
        if (k == key)
            return &v;
    }
    return nullptr;
}

namespace {

/** Append one Unicode code point to @p out as UTF-8. */
void
appendUtf8(std::string &out, std::uint32_t code)
{
    if (code < 0x80) {
        out += static_cast<char>(code);
    } else if (code < 0x800) {
        out += static_cast<char>(0xc0 | (code >> 6));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
        out += static_cast<char>(0xe0 | (code >> 12));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
        out += static_cast<char>(0xf0 | (code >> 18));
        out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
        out += static_cast<char>(0x80 | (code & 0x3f));
    }
}

/** Parse the 4 hex digits at @p pos; false when short or non-hex. */
bool
parseHex4(const std::string &text, std::size_t pos, std::uint32_t &code)
{
    if (pos + 4 > text.size())
        return false;
    code = 0;
    for (std::size_t i = 0; i < 4; ++i) {
        char c = text[pos + i];
        code <<= 4;
        if (c >= '0' && c <= '9')
            code |= static_cast<std::uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            code |= static_cast<std::uint32_t>(c - 'a' + 10);
        else if (c >= 'A' && c <= 'F')
            code |= static_cast<std::uint32_t>(c - 'A' + 10);
        else
            return false;
    }
    return true;
}

} // namespace

bool
jsonUnescape(const std::string &body, std::string &out, std::string &error)
{
    out.clear();
    out.reserve(body.size());
    std::size_t pos = 0;
    while (pos < body.size()) {
        char c = body[pos++];
        if (c != '\\') {
            out += c;
            continue;
        }
        if (pos >= body.size()) {
            error = "dangling backslash";
            return false;
        }
        char e = body[pos++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'n': out += '\n'; break;
          case 't': out += '\t'; break;
          case 'r': out += '\r'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'u': {
            std::uint32_t code;
            if (!parseHex4(body, pos, code)) {
                error = "bad \\u escape";
                return false;
            }
            pos += 4;
            if (code >= 0xdc00 && code <= 0xdfff) {
                error = "unpaired low surrogate in \\u escape";
                return false;
            }
            if (code >= 0xd800 && code <= 0xdbff) {
                // High surrogate: a \uDC00-\uDFFF low half must follow,
                // and the pair encodes one supplementary code point.
                std::uint32_t lo = 0;
                if (pos + 6 > body.size() || body[pos] != '\\' ||
                    body[pos + 1] != 'u' ||
                    !parseHex4(body, pos + 2, lo) || lo < 0xdc00 ||
                    lo > 0xdfff) {
                    error = "unpaired high surrogate in \\u escape";
                    return false;
                }
                pos += 6;
                code = 0x10000 + ((code - 0xd800) << 10) + (lo - 0xdc00);
            }
            appendUtf8(out, code);
            break;
          }
          default:
            error = std::string("unknown escape '\\") + e + "'";
            return false;
        }
    }
    return true;
}

namespace {

/** Recursive-descent parser over the source text. */
class Parser
{
  public:
    Parser(const std::string &text, std::string &error)
        : text_(text), error_(error)
    {}

    bool
    parseDocument(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after document");
        return true;
    }

  private:
    bool
    fail(const std::string &what)
    {
        error_ = what + " at offset " + std::to_string(pos_);
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = 0;
        while (word[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, word) != 0)
            return fail(std::string("expected '") + word + "'");
        pos_ += n;
        return true;
    }

    bool
    parseString(std::string &out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        // Find the closing quote (a backslash always escapes the next
        // byte), then decode the whole body in one pass.
        const std::size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                if (pos_ + 1 >= text_.size())
                    return fail("unterminated escape");
                ++pos_;
            }
            ++pos_;
        }
        if (pos_ >= text_.size())
            return fail("unterminated string");
        std::string escape_error;
        if (!jsonUnescape(text_.substr(start, pos_ - start), out,
                          escape_error))
            return fail(escape_error);
        ++pos_; // closing quote
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        skipWs();
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        // Containers recurse; bound the depth so a malformed document
        // fails with an error instead of overflowing the stack. The
        // writer never nests past single digits.
        if (depth_ >= kMaxDepth)
            return fail("nesting deeper than 256 levels");
        out.begin = pos_;
        char c = text_[pos_];
        bool ok;
        switch (c) {
          case '{':
            ++depth_;
            ok = parseObject(out);
            --depth_;
            break;
          case '[':
            ++depth_;
            ok = parseArray(out);
            --depth_;
            break;
          case '"':
            out.kind = JsonValue::Kind::kString;
            ok = parseString(out.text);
            break;
          case 't':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = true;
            ok = literal("true");
            break;
          case 'f':
            out.kind = JsonValue::Kind::kBool;
            out.boolean = false;
            ok = literal("false");
            break;
          case 'n':
            out.kind = JsonValue::Kind::kNull;
            ok = literal("null");
            break;
          default:
            ok = parseNumber(out);
            break;
        }
        if (!ok)
            return false;
        out.end = pos_;
        return true;
    }

    bool
    parseNumber(JsonValue &out)
    {
        std::size_t start = pos_;
        if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        bool digits = false;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
                c == 'e' || c == 'E' || c == '-' || c == '+') {
                digits = digits ||
                         std::isdigit(static_cast<unsigned char>(c));
                ++pos_;
            } else {
                break;
            }
        }
        if (!digits) {
            pos_ = start;
            return fail("expected value");
        }
        out.kind = JsonValue::Kind::kNumber;
        out.text = text_.substr(start, pos_ - start);
        // std::from_chars, not strtod: the writer's locale-independence
        // contract (json.hh) extends to the read path.
        auto res = std::from_chars(out.text.data(),
                                   out.text.data() + out.text.size(),
                                   out.number);
        if (res.ec != std::errc{}) {
            pos_ = start;
            return fail("malformed number");
        }
        return true;
    }

    bool
    parseObject(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kObject;
        ++pos_; // '{'
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':')
                return fail("expected ':'");
            ++pos_;
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.members.emplace_back(std::move(key), std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    parseArray(JsonValue &out)
    {
        out.kind = JsonValue::Kind::kArray;
        ++pos_; // '['
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            return true;
        }
        while (true) {
            JsonValue v;
            if (!parseValue(v))
                return false;
            out.items.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    static constexpr int kMaxDepth = 256;

    const std::string &text_;
    std::string &error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &error)
{
    out = JsonValue{};
    Parser p(text, error);
    return p.parseDocument(out);
}

} // namespace mondrian

/**
 * @file
 * The two lexical decisions every flag and spec grammar shares: how a
 * list splits and what a number is. Each grammar keeps its own error
 * text and range checks; none reads a number or splits a list any
 * other way.
 */

#ifndef MONDRIAN_COMMON_GRAMMAR_HH
#define MONDRIAN_COMMON_GRAMMAR_HH

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace mondrian {

/** Every piece of @p text between @p sep characters, empty ones
 *  included: "a,,b" gives {"a", "", "b"} and "" gives {""}. A grammar
 *  that tolerates empty items drops them itself. */
inline std::vector<std::string>
splitOn(std::string_view text, char sep)
{
    std::vector<std::string> out;
    for (std::size_t start = 0;;) {
        const std::size_t end = text.find(sep, start);
        out.emplace_back(text.substr(start, end - start));
        if (end == std::string_view::npos)
            return out;
        start = end + 1;
    }
}

/** @p text as plain decimal digits whose value is at most @p max.
 *  A blank, sign, hex prefix, trailing junk or overflow fails, leaving
 *  @p out untouched. */
inline bool
parseUint(std::string_view text, std::uint64_t max, std::uint64_t &out)
{
    std::uint64_t v = 0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size() || v > max)
        return false;
    out = v;
    return true;
}

/** The whole of @p text as one finite decimal number ("-0.5", "2",
 *  "1e3"). A blank, '+', hex float, inf, nan, overflow, underflow to
 *  zero or trailing junk fails, leaving @p out untouched. Range checks
 *  are the caller's. */
inline bool
parseReal(std::string_view text, double &out)
{
    double v = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), v);
    if (ec != std::errc{} || end != text.data() + text.size() ||
        !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace mondrian

#endif // MONDRIAN_COMMON_GRAMMAR_HH

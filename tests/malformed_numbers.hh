/**
 * @file
 * The one table of malformed numbers every flag and spec grammar must
 * refuse (src/common/grammar.hh). Tests splice each entry into a
 * numeric slot in place of a well-formed value.
 */

#ifndef MONDRIAN_TESTS_MALFORMED_NUMBERS_HH
#define MONDRIAN_TESTS_MALFORMED_NUMBERS_HH

#include <string>
#include <vector>

/**
 * Malformed variants of @p good, a well-formed value for its slot: a
 * leading blank, '+', '-', hex, inf, nan, an overflow, empty and
 * trailing junk. A real slot (@p real) overflows at 1e999, an integer
 * one at 2^64; a negative real is refused by its slot's range.
 */
inline std::vector<std::string>
malformedNumbers(const std::string &good, bool real)
{
    return {" " + good, "+" + good, "-" + good, "0x" + good, "inf", "nan",
            real ? "1e999" : "18446744073709551616", "", good + "z"};
}

#endif // MONDRIAN_TESTS_MALFORMED_NUMBERS_HH

/**
 * @file
 * Shared checked argument parsing for the examples.
 *
 * Every example takes a small positional number (a log2 scale factor).
 * Bare atoi silently turns garbage into 0 and lets out-of-range values
 * through — `1ull << atoi(argv[1])` is undefined behavior for arguments
 * >= 64 (and negative ones are worse). intArg rejects non-numeric and
 * out-of-range values with a clear message instead, the way the
 * campaign CLI does.
 */

#ifndef MONDRIAN_EXAMPLES_EXAMPLE_ARGS_HH
#define MONDRIAN_EXAMPLES_EXAMPLE_ARGS_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "common/grammar.hh"

namespace example_args {

/**
 * Parse positional argument @p index as an unsigned integer in
 * [@p lo, @p hi]; @p fallback when absent. Prints an error naming
 * @p what and exits 2 on garbage or out-of-range values.
 */
inline unsigned
intArg(int argc, char **argv, int index, const char *what, unsigned lo,
       unsigned hi, unsigned fallback)
{
    if (index >= argc)
        return fallback;
    const char *text = argv[index];
    std::uint64_t v = 0;
    if (!mondrian::parseUint(text, hi, v) || v < lo) {
        std::fprintf(stderr, "%s must be an integer in [%u, %u] (got '%s')\n",
                     what, lo, hi, text);
        std::exit(2);
    }
    return static_cast<unsigned>(v);
}

} // namespace example_args

#endif // MONDRIAN_EXAMPLES_EXAMPLE_ARGS_HH

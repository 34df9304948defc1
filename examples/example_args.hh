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

#include <cstdio>
#include <cstdlib>
#include <string>

namespace example_args {

/**
 * Parse positional argument @p index as a long in [@p lo, @p hi];
 * @p fallback when absent. Prints an error naming @p what and exits 2
 * on garbage or out-of-range values.
 */
inline long
intArg(int argc, char **argv, int index, const char *what, long lo, long hi,
       long fallback)
{
    if (index >= argc)
        return fallback;
    const char *text = argv[index];
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0') {
        std::fprintf(stderr, "%s: '%s' is not an integer\n", what, text);
        std::exit(2);
    }
    if (v < lo || v > hi) {
        std::fprintf(stderr, "%s must be in [%ld, %ld] (got %s)\n", what,
                     lo, hi, text);
        std::exit(2);
    }
    return v;
}

} // namespace example_args

#endif // MONDRIAN_EXAMPLES_EXAMPLE_ARGS_HH

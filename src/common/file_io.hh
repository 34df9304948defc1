/**
 * @file
 * Tiny file helpers shared by the CLIs and examples.
 *
 * An ofstream opens fine on a full disk and fails mid-write; its
 * destructor swallows the error, so an unchecked `out << text` can exit
 * 0 having written a truncated artifact. Every writer of report/CSV
 * artifacts goes through writeTextFile() so that cannot happen.
 */

#ifndef MONDRIAN_COMMON_FILE_IO_HH
#define MONDRIAN_COMMON_FILE_IO_HH

#include <fstream>
#include <iterator>
#include <string>

namespace mondrian {

/**
 * Write @p text to @p path (binary, replacing any existing file).
 * @return false with @p error set when the file cannot be opened or the
 * write does not complete (e.g. disk full).
 */
inline bool
writeTextFile(const std::string &path, const std::string &text,
              std::string &error)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        error = "cannot open '" + path + "' for writing";
        return false;
    }
    out << text;
    out.flush();
    if (!out.good()) {
        error = "write to '" + path + "' failed";
        return false;
    }
    return true;
}

/**
 * Read the whole of @p path (binary) into @p text.
 * @return false with @p error set when the file cannot be opened or read.
 */
inline bool
readTextFile(const std::string &path, std::string &text, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open '" + path + "'";
        return false;
    }
    text.assign(std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>());
    if (in.bad()) {
        error = "read of '" + path + "' failed";
        return false;
    }
    return true;
}

} // namespace mondrian

#endif // MONDRIAN_COMMON_FILE_IO_HH

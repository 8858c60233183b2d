/**
 * @file
 * Locale-independent numeric formatting for telemetry sinks.
 *
 * `fprintf("%g")` obeys the process locale (a German runner prints
 * `120,5` and corrupts every CSV/JSON export) and truncates doubles to
 * six significant digits, so digests over re-parsed files drift.
 * These helpers wrap `std::to_chars`, which is locale-independent by
 * specification and — in the shortest form — round-trip exact: the
 * printed string parses back to the identical double. `writeFile`
 * gives every report's `FILE*` writer its one path form.
 */

#ifndef APC_OBS_FMT_H
#define APC_OBS_FMT_H

#include <charconv>
#include <cstdio>
#include <cstring>
#include <string>

namespace apc::obs {

/** Stack buffer holding one formatted number (NUL-terminated). */
struct NumBuf
{
    char s[40];
    const char *c_str() const { return s; }
};

/** Shortest round-trip-exact decimal form of @p v ("120.5", "3",
 *  "0.30000000000000004"). Non-finite values print as "nan"/"inf"
 *  (callers emitting JSON must special-case them first). */
inline NumBuf
fmtDouble(double v)
{
    NumBuf b;
    const auto r = std::to_chars(b.s, b.s + sizeof(b.s) - 1, v);
    *r.ptr = '\0';
    return b;
}

/** Fixed-point form with @p precision fractional digits ("10.0000").
 *  Same digits "%.Nf" produces in the C locale, on every locale. */
inline NumBuf
fmtFixed(double v, int precision)
{
    NumBuf b;
    const auto r = std::to_chars(b.s, b.s + sizeof(b.s) - 1, v,
                                 std::chars_format::fixed, precision);
    *r.ptr = '\0';
    return b;
}

/** Open @p path for writing and hand it to @p write, a report's
 *  `bool(std::FILE *)` writer. @return false if the file cannot be
 *  opened, written or closed. */
template <class Write>
bool
writeFile(const std::string &path, Write &&write)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    const bool ok = write(f);
    return std::fclose(f) == 0 && ok;
}

} // namespace apc::obs

#endif // APC_OBS_FMT_H

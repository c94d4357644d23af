/**
 * @file
 * Error-reporting helpers following the gem5 fatal/panic convention.
 *
 * - panic():  an internal invariant was violated (a bug in this library);
 *             aborts so a debugger or core dump can capture state.
 * - fatal():  the *user* asked for something impossible (bad config);
 *             exits with status 1.
 */

#ifndef PIM_UTIL_LOGGING_HH
#define PIM_UTIL_LOGGING_HH

#include <cstdlib>
#include <sstream>
#include <string>

namespace pim::util {

/** Print "panic: <msg>" with location info and abort(). */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);

/** Print "fatal: <msg>" and exit(1). */
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

namespace detail {

template <typename... Args>
std::string
formatParts(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace pim::util

#define PIM_PANIC(...) \
    ::pim::util::panicImpl(__FILE__, __LINE__, \
        ::pim::util::detail::formatParts(__VA_ARGS__))

#define PIM_FATAL(...) \
    ::pim::util::fatalImpl(__FILE__, __LINE__, \
        ::pim::util::detail::formatParts(__VA_ARGS__))

/** Invariant check that stays enabled in release builds. */
#define PIM_ASSERT(cond, ...) \
    do { \
        if (!(cond)) \
            PIM_PANIC("assertion failed: " #cond " — ", ##__VA_ARGS__); \
    } while (0)

#endif // PIM_UTIL_LOGGING_HH

/**
 * @file
 * Error reporting and status messages, modelled after gem5's
 * base/logging.hh conventions.
 *
 * panic()  — an internal invariant was violated (a library bug);
 *            aborts so the failure is loud in tests.
 * fatal()  — the caller asked for something unsatisfiable (bad
 *            configuration); exits with an error code.
 * warn()  — non-fatal status for the user.
 */

#ifndef RHMD_SUPPORT_LOGGING_HH
#define RHMD_SUPPORT_LOGGING_HH

#include <sstream>
#include <string>

namespace rhmd
{

/** Abort with a message; used for internal invariant violations. */
[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &message);

/** Exit(1) with a message; used for unsatisfiable user requests. */
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &message);

/** Print a warning to stderr. */
void warn(const std::string &message);

namespace detail
{

/** Concatenate arbitrary streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

} // namespace rhmd

#define rhmd_panic(...) \
    ::rhmd::panicImpl(__FILE__, __LINE__, \
                      ::rhmd::detail::concat(__VA_ARGS__))

#define rhmd_fatal(...) \
    ::rhmd::fatalImpl(__FILE__, __LINE__, \
                      ::rhmd::detail::concat(__VA_ARGS__))

/** Panic when @p cond holds; message describes the violation. */
#define panic_if(cond, ...) \
    do { \
        if (cond) \
            rhmd_panic(__VA_ARGS__); \
    } while (0)

/** Fatal when @p cond holds; message describes the bad request. */
#define fatal_if(cond, ...) \
    do { \
        if (cond) \
            rhmd_fatal(__VA_ARGS__); \
    } while (0)

#endif // RHMD_SUPPORT_LOGGING_HH

/**
 * @file
 * Strict parsing of command-line numbers.
 */

#ifndef RHMD_SUPPORT_PARSE_HH
#define RHMD_SUPPORT_PARSE_HH

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <type_traits>

namespace rhmd::support
{

/**
 * Parse @p text as an unsigned count or seed into @p out: decimal,
 * 0x hex or 0-prefixed octal (strtoull base 0). The text must start
 * with a digit, be consumed whole and fit in T, so "4x", "abc", "-1"
 * and "+1" are rejected, where a bare strtoull would read 4, 0,
 * 2^64 - 1 and 1. Returns false, leaving @p out unchanged, on
 * rejection.
 */
template <typename T>
bool
parseUnsigned(const char *text, T &out)
{
    static_assert(std::is_unsigned_v<T>);
    if (!std::isdigit(static_cast<unsigned char>(text[0])))
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 0);
    if (errno == ERANGE || *end != '\0' ||
        value > std::numeric_limits<T>::max())
        return false;
    out = static_cast<T>(value);
    return true;
}

/**
 * Parse @p text as a finite double into @p out (strtod syntax). The
 * text must be consumed whole and must not start with a space, so
 * "3x", "abc" and "" are rejected, where a bare strtod would read 3,
 * 0 and 0; "inf", "nan" and out-of-range values such as "1e999" are
 * rejected too. Returns false, leaving @p out unchanged, on
 * rejection.
 */
inline bool
parseDouble(const char *text, double &out)
{
    if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0])))
        return false;
    char *end = nullptr;
    const double value = std::strtod(text, &end);
    if (*end != '\0' || !std::isfinite(value))
        return false;
    out = value;
    return true;
}

} // namespace rhmd::support

#endif // RHMD_SUPPORT_PARSE_HH

/**
 * @file
 * Implementation of the logging and error-reporting helpers.
 */

#include "support/logging.hh"

#include <cstdlib>
#include <iostream>

namespace rhmd
{

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &message)
{
    std::cerr << "panic: " << message << "\n  at " << file << ":" << line
              << std::endl;
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &message)
{
    std::cerr << "fatal: " << message << "\n  at " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warn(const std::string &message)
{
    std::cerr << "warn: " << message << std::endl;
}

} // namespace rhmd

/**
 * @file
 * Status implementation.
 */

#include "support/status.hh"

namespace rhmd::support
{

std::string_view
statusCodeName(StatusCode code)
{
    switch (code) {
      case StatusCode::Ok:
        return "OK";
      case StatusCode::InvalidArgument:
        return "INVALID_ARGUMENT";
      case StatusCode::DataLoss:
        return "DATA_LOSS";
      case StatusCode::FailedPrecondition:
        return "FAILED_PRECONDITION";
      case StatusCode::Unavailable:
        return "UNAVAILABLE";
      case StatusCode::Internal:
        return "INTERNAL";
    }
    rhmd_panic("unknown status code ", static_cast<int>(code));
}

Status::Status(StatusCode code, std::string message)
    : code_(code), message_(std::move(message))
{
    panic_if(code_ == StatusCode::Ok,
             "error Status must not use StatusCode::Ok");
}

std::string
Status::toString() const
{
    if (isOk())
        return "OK";
    return std::string(statusCodeName(code_)) + ": " + message_;
}

} // namespace rhmd::support

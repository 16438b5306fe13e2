/**
 * @file
 * Recoverable error handling: Status and StatusOr<T>.
 *
 * The logging layer's fatal()/panic() are the right tool for
 * programming errors and unsatisfiable configuration, but a deployed
 * detector cannot exit(1) because a sensor glitched or a model file
 * arrived corrupt. Paths on the deployment data plane (model loading,
 * sensor reads, policy validation, the detection service) return
 * Status / StatusOr<T> instead, so callers decide whether to retry,
 * degrade, or abort.
 */

#ifndef RHMD_SUPPORT_STATUS_HH
#define RHMD_SUPPORT_STATUS_HH

#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "support/logging.hh"

namespace rhmd::support
{

/** Error category, loosely following the absl/gRPC canonical codes. */
enum class StatusCode : std::uint8_t
{
    Ok,
    /** The request itself is malformed (bad policy, bad config). */
    InvalidArgument,
    /** Stored or transmitted bytes are corrupt or truncated. */
    DataLoss,
    /** A precondition (version, trained state) does not hold. */
    FailedPrecondition,
    /** Transient failure; retrying may succeed. */
    Unavailable,
    /** Invariant violation surfaced as an error instead of a panic. */
    Internal,
};

/** Canonical upper-case name of a code ("DATA_LOSS"). */
std::string_view statusCodeName(StatusCode code);

/**
 * An error code plus a human-readable message. Default-constructed
 * Status is OK; error Statuses always carry a message.
 */
class Status
{
  public:
    /** OK status. */
    Status() = default;

    /** Error status; @p code must not be Ok (panics otherwise). */
    Status(StatusCode code, std::string message);

    bool isOk() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "DATA_LOSS: short vector" (or "OK"). */
    std::string toString() const;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/** Message-concatenating error constructors. */
template <typename... Args>
Status
invalidArgumentError(Args &&...args)
{
    return Status(StatusCode::InvalidArgument,
                  rhmd::detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
Status
dataLossError(Args &&...args)
{
    return Status(StatusCode::DataLoss,
                  rhmd::detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
Status
failedPreconditionError(Args &&...args)
{
    return Status(StatusCode::FailedPrecondition,
                  rhmd::detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
Status
unavailableError(Args &&...args)
{
    return Status(StatusCode::Unavailable,
                  rhmd::detail::concat(std::forward<Args>(args)...));
}

template <typename... Args>
Status
internalError(Args &&...args)
{
    return Status(StatusCode::Internal,
                  rhmd::detail::concat(std::forward<Args>(args)...));
}

/**
 * Either a value or an error Status. value() on an error panics (it
 * is a caller bug to skip the isOk() check), so always branch first:
 *
 * @code
 *   auto model = ml::tryLoadModel(stream);
 *   if (!model.isOk())
 *       return model.status();
 *   use(*std::move(model).value());
 * @endcode
 */
template <typename T>
class StatusOr
{
  public:
    /** Implicit from an error Status (panics if the status is OK). */
    StatusOr(Status status) : status_(std::move(status))
    {
        panic_if(status_.isOk(),
                 "StatusOr constructed from an OK status without a "
                 "value");
    }

    /** Implicit from a value. */
    StatusOr(T value) : value_(std::move(value)) {}

    bool isOk() const { return status_.isOk(); }
    const Status &status() const { return status_; }

    const T &
    value() const &
    {
        panic_if(!isOk(), "value() on error status: ",
                 status_.toString());
        return *value_;
    }

    T &
    value() &
    {
        panic_if(!isOk(), "value() on error status: ",
                 status_.toString());
        return *value_;
    }

    T &&
    value() &&
    {
        panic_if(!isOk(), "value() on error status: ",
                 status_.toString());
        return *std::move(value_);
    }

    const T &operator*() const & { return value(); }
    T &operator*() & { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

  private:
    Status status_;
    std::optional<T> value_;
};

} // namespace rhmd::support

#endif // RHMD_SUPPORT_STATUS_HH

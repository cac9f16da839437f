#ifndef VPART_UTIL_STATUS_H_
#define VPART_UTIL_STATUS_H_

#include <cassert>
#include <optional>
#include <ostream>
#include <string>
#include <utility>

namespace vpart {

/// Error categories used across the library. Mirrors the common subset of
/// absl::StatusCode that this project needs.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kOutOfRange,
  kUnimplemented,
  kInternal,
  kDeadlineExceeded,
  kInfeasible,  // domain-specific: model/solution infeasibility
};

/// Returns a stable human-readable name for `code` ("OK", "INVALID_ARGUMENT", ...).
const char* StatusCodeName(StatusCode code);

/// Lightweight status object used for fallible operations (parsing, model
/// construction, solving). Cheap to copy in the OK case.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Returns "<CODE>: <message>" or "OK".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status FailedPreconditionError(std::string message);
Status OutOfRangeError(std::string message);
Status UnimplementedError(std::string message);
Status InternalError(std::string message);
Status DeadlineExceededError(std::string message);
Status InfeasibleError(std::string message);

/// Value-or-error result type. `value()` must only be called when ok().
template <typename T>
class StatusOr {
 public:
  StatusOr(const T& value) : value_(value) {}                  // NOLINT
  StatusOr(T&& value) : value_(std::move(value)) {}            // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {       // NOLINT
    assert(!status_.ok() && "StatusOr constructed from OK status");
  }

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    assert(ok());
    return *value_;
  }
  T& value() & {
    assert(ok());
    return *value_;
  }
  T&& value() && {
    assert(ok());
    return std::move(*value_);
  }

  /// The value when ok(), `fallback` otherwise.
  T value_or(T fallback) const& { return ok() ? *value_ : fallback; }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace vpart

/// Propagates a non-OK Status from an expression, absl-style.
#define VPART_RETURN_IF_ERROR(expr)                  \
  do {                                               \
    ::vpart::Status vpart_status_ = (expr);          \
    if (!vpart_status_.ok()) return vpart_status_;   \
  } while (0)

#endif  // VPART_UTIL_STATUS_H_

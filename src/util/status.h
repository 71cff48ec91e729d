// Status / StatusOr error-handling primitives, in the style of Arrow and
// RocksDB: fallible operations return a Status (or StatusOr<T>) instead of
// throwing. Internal invariant violations use assert/CHECK-style macros.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace colgraph {

enum class StatusCode : uint8_t {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kOutOfRange,
  kIOError,
  kCorruption,
  kNotSupported,
  kInternal,
  // Serving-layer codes (DESIGN.md §12). DeadlineExceeded and Cancelled are
  // raised by cooperative cancellation (util/cancellation.h) inside query
  // evaluation; ResourceExhausted and Unavailable are admission-control and
  // drain responses from the colgraphd daemon.
  kDeadlineExceeded,
  kCancelled,
  kResourceExhausted,
  kUnavailable,
};

/// \brief Result of a fallible operation.
///
/// A Status is cheap to copy in the OK case (no allocation); error states
/// carry a code and a message. Use the factory functions
/// (Status::InvalidArgument(...) etc.) to construct errors.
class [[nodiscard]] Status {
 public:
  Status() = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status NotSupported(std::string msg) {
    return Status(StatusCode::kNotSupported, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status DeadlineExceeded(std::string msg) {
    return Status(StatusCode::kDeadlineExceeded, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return state_ == nullptr; }
  StatusCode code() const { return ok() ? StatusCode::kOk : state_->code; }
  const std::string& message() const {
    static const std::string kEmpty;
    return ok() ? kEmpty : state_->message;
  }

  bool IsInvalidArgument() const {
    return code() == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code() == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code() == StatusCode::kAlreadyExists; }
  bool IsOutOfRange() const { return code() == StatusCode::kOutOfRange; }
  bool IsIOError() const { return code() == StatusCode::kIOError; }
  bool IsCorruption() const { return code() == StatusCode::kCorruption; }
  bool IsNotSupported() const { return code() == StatusCode::kNotSupported; }
  bool IsInternal() const { return code() == StatusCode::kInternal; }
  bool IsDeadlineExceeded() const {
    return code() == StatusCode::kDeadlineExceeded;
  }
  bool IsCancelled() const { return code() == StatusCode::kCancelled; }
  bool IsResourceExhausted() const {
    return code() == StatusCode::kResourceExhausted;
  }
  bool IsUnavailable() const { return code() == StatusCode::kUnavailable; }

  /// Human-readable "CODE: message" string, "OK" for success.
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code() == other.code() && message() == other.message();
  }

 private:
  struct State {
    StatusCode code;
    std::string message;
  };

  Status(StatusCode code, std::string msg)
      : state_(std::make_shared<State>(State{code, std::move(msg)})) {}

  // Shared so Status stays copyable and cheap; error states are immutable.
  std::shared_ptr<const State> state_;
};

/// \brief Either a value of type T or an error Status.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT implicit
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT implicit

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  T& value() & {
    COLGRAPH_DCHECK(ok()) << status().ToString();
    return *value_;
  }
  const T& value() const& {
    COLGRAPH_DCHECK(ok()) << status().ToString();
    return *value_;
  }
  T&& value() && {
    COLGRAPH_DCHECK(ok()) << status().ToString();
    return std::move(*value_);
  }

  T& operator*() { return value(); }
  const T& operator*() const { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  /// Returns the value or `alternative` when in the error state.
  T value_or(T alternative) const {
    return ok() ? *value_ : std::move(alternative);
  }

 private:
  Status status_;  // OK iff value_ holds a value.
  std::optional<T> value_;
};

#define COLGRAPH_RETURN_NOT_OK_IMPL(tmp, expr) \
  do {                                         \
    ::colgraph::Status tmp = (expr);           \
    if (!tmp.ok()) return tmp;                 \
  } while (0)

// Propagate a non-OK Status to the caller. The temporary is named per line
// so that nested uses (a lambda body inside the argument of another) do
// not shadow each other.
#define COLGRAPH_RETURN_NOT_OK(expr) \
  COLGRAPH_RETURN_NOT_OK_IMPL(COLGRAPH_CONCAT_(_status_, __LINE__), expr)

// Evaluate a StatusOr expression, propagate the error or bind the value.
#define COLGRAPH_ASSIGN_OR_RETURN_IMPL(tmp, lhs, rexpr) \
  auto tmp = (rexpr);                                   \
  if (!tmp.ok()) return tmp.status();                   \
  lhs = std::move(tmp).value()

#define COLGRAPH_ASSIGN_OR_RETURN(lhs, rexpr)                                  \
  COLGRAPH_ASSIGN_OR_RETURN_IMPL(                                              \
      COLGRAPH_CONCAT_(_status_or_, __LINE__), lhs, rexpr)

#define COLGRAPH_CONCAT_INNER_(a, b) a##b
#define COLGRAPH_CONCAT_(a, b) COLGRAPH_CONCAT_INNER_(a, b)

}  // namespace colgraph

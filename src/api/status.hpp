#pragma once
// Structured error propagation for the public Engine API (ISSUE 3).
//
// The analysis/simulation core keeps its two-tier discipline (GPURF_CHECK
// throws gpurf::Error for recoverable input problems, GPURF_ASSERT aborts on
// internal corruption).  The Engine boundary converts the recoverable tier
// into values: every public entry point returns Status or StatusOr<T>, so a
// server embedding many Engines can reject one bad request — unknown
// workload, malformed kernel text, stale cache entry — without unwinding or
// terminating the process.

#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"

namespace gpurf {

enum class StatusCode {
  kOk = 0,
  kInvalidArgument,     ///< malformed input (bad kernel text, bad options)
  kNotFound,            ///< unknown workload / missing cache entry
  kFailedPrecondition,  ///< IR verification failed
  kDataLoss,            ///< corrupt or stale on-disk cache entry
  kResourceExhausted,   ///< bounded queue rejected the submission
  kInternal,            ///< unexpected failure inside the core
  kCancelled,           ///< job cancelled by the caller
  kDeadlineExceeded,    ///< per-request deadline elapsed (queued or running)
  kUnavailable,         ///< transient transport failure (daemon not up,
                        ///< connection lost, socket timeout) — retryable
  kUnauthenticated,     ///< missing or invalid auth token (ISSUE 8 TCP
                        ///< transport) — not retryable without a new token
};

inline const char* status_code_name(StatusCode c) {
  switch (c) {
    case StatusCode::kOk: return "OK";
    case StatusCode::kInvalidArgument: return "INVALID_ARGUMENT";
    case StatusCode::kNotFound: return "NOT_FOUND";
    case StatusCode::kFailedPrecondition: return "FAILED_PRECONDITION";
    case StatusCode::kDataLoss: return "DATA_LOSS";
    case StatusCode::kResourceExhausted: return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal: return "INTERNAL";
    case StatusCode::kCancelled: return "CANCELLED";
    case StatusCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case StatusCode::kUnavailable: return "UNAVAILABLE";
    case StatusCode::kUnauthenticated: return "UNAUTHENTICATED";
  }
  return "UNKNOWN";
}

class Status {
 public:
  Status() = default;  // OK
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string m) {
    return Status(StatusCode::kInvalidArgument, std::move(m));
  }
  static Status NotFound(std::string m) {
    return Status(StatusCode::kNotFound, std::move(m));
  }
  static Status FailedPrecondition(std::string m) {
    return Status(StatusCode::kFailedPrecondition, std::move(m));
  }
  static Status DataLoss(std::string m) {
    return Status(StatusCode::kDataLoss, std::move(m));
  }
  static Status ResourceExhausted(std::string m) {
    return Status(StatusCode::kResourceExhausted, std::move(m));
  }
  static Status Internal(std::string m) {
    return Status(StatusCode::kInternal, std::move(m));
  }
  static Status Cancelled(std::string m) {
    return Status(StatusCode::kCancelled, std::move(m));
  }
  static Status DeadlineExceeded(std::string m) {
    return Status(StatusCode::kDeadlineExceeded, std::move(m));
  }
  static Status Unavailable(std::string m) {
    return Status(StatusCode::kUnavailable, std::move(m));
  }
  static Status Unauthenticated(std::string m) {
    return Status(StatusCode::kUnauthenticated, std::move(m));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  std::string to_string() const {
    return ok() ? "OK"
                : std::string(status_code_name(code_)) + ": " + message_;
  }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Value-or-Status.  value() asserts ok() via GPURF_CHECK (throws
/// gpurf::Error, never aborts), so legacy shims can surface engine errors
/// as the exceptions callers already handle.
template <typename T>
class StatusOr {
 public:
  StatusOr(Status status)  // NOLINT: implicit by design, like absl
      : status_(std::move(status)) {
    GPURF_CHECK(!status_.ok(), "StatusOr constructed from OK without value");
  }
  StatusOr(T value)  // NOLINT
      : value_(std::move(value)) {}

  bool ok() const { return value_.has_value(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    GPURF_CHECK(ok(), "StatusOr::value on error: " << status_.to_string());
    return *value_;
  }
  T& value() & {
    GPURF_CHECK(ok(), "StatusOr::value on error: " << status_.to_string());
    return *value_;
  }
  T&& value() && {
    GPURF_CHECK(ok(), "StatusOr::value on error: " << status_.to_string());
    return std::move(*value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;
  std::optional<T> value_;
};

}  // namespace gpurf

// The one status vocabulary of the serving stack.
//
// Every fallible serving-path API — query admission (service::
// SearchService), mutation admission (ingest::Compactor), the network
// protocol (net/) — reports outcomes from this single StatusCode
// taxonomy, and the wire protocol transmits the numeric code verbatim
// (docs/PROTOCOL.md), so a network client sees exactly the same failure
// vocabulary an in-process embedder does. Status carries a code plus an
// optional human-readable message; StatusOr<T> is the value-or-status
// return for APIs that produce a result (e.g. Insert's assigned id).
//
// Codes are wire format: values are stable, appended-only, and encoded
// as u16. Renumbering is a protocol break.

#ifndef SOFA_UTIL_STATUS_H_
#define SOFA_UTIL_STATUS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "util/check.h"

namespace sofa {

/// Outcome taxonomy shared by the in-process APIs and the wire protocol.
enum class StatusCode : std::uint16_t {
  kOk = 0,               // done exactly as asked
  kRejected = 1,         // shed at admission (queue/backpressure full) — retry
  kDeadlineExpired = 2,  // deadline passed before the work ran
  kShutdown = 3,         // the serving component is stopping
  kInvalidArgument = 4,  // malformed request (wrong length, bad id, ...)
  kNotFound = 5,         // the named entity never existed
  kAlreadyDeleted = 6,   // delete of an id that is already deleted
  kIoError = 7,          // durable write failed — not applied; may retry
  kQuotaExceeded = 8,    // per-tenant in-flight quota hit — retry later
  kUnavailable = 9,      // the capability is not attached (e.g. persist
                         // without a generation store)
  kProtocolError = 10,   // wire framing/payload could not be understood
  kInternal = 11,        // invariant violation on the far side
};

/// Stable lower-case name of a code ("ok", "rejected", ...); never null.
const char* StatusCodeName(StatusCode code);

/// A StatusCode plus optional context message. Cheap to copy when ok
/// (empty message), movable always.
class Status {
 public:
  Status() = default;
  explicit Status(StatusCode code, std::string message = "")
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<name>: <message>" (name alone when the message is empty).
  std::string ToString() const;

  bool operator==(const Status& other) const { return code_ == other.code_; }
  bool operator!=(const Status& other) const { return code_ != other.code_; }
  bool operator==(StatusCode code) const { return code_ == code; }
  bool operator!=(StatusCode code) const { return code_ != code; }

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Convenience constructors mirroring the taxonomy.
inline Status OkStatus() { return Status(); }
inline Status RejectedError(std::string m = "") {
  return Status(StatusCode::kRejected, std::move(m));
}
inline Status DeadlineExpiredError(std::string m = "") {
  return Status(StatusCode::kDeadlineExpired, std::move(m));
}
inline Status ShutdownError(std::string m = "") {
  return Status(StatusCode::kShutdown, std::move(m));
}
inline Status InvalidArgumentError(std::string m = "") {
  return Status(StatusCode::kInvalidArgument, std::move(m));
}
inline Status NotFoundError(std::string m = "") {
  return Status(StatusCode::kNotFound, std::move(m));
}
inline Status AlreadyDeletedError(std::string m = "") {
  return Status(StatusCode::kAlreadyDeleted, std::move(m));
}
inline Status IoError(std::string m = "") {
  return Status(StatusCode::kIoError, std::move(m));
}
inline Status QuotaExceededError(std::string m = "") {
  return Status(StatusCode::kQuotaExceeded, std::move(m));
}
inline Status UnavailableError(std::string m = "") {
  return Status(StatusCode::kUnavailable, std::move(m));
}
inline Status ProtocolError(std::string m = "") {
  return Status(StatusCode::kProtocolError, std::move(m));
}
inline Status InternalError(std::string m = "") {
  return Status(StatusCode::kInternal, std::move(m));
}

/// Value-or-Status. Accessing value() of a non-ok StatusOr aborts
/// (SOFA_CHECK — the library's no-exceptions contract).
template <typename T>
class StatusOr {
 public:
  /// Non-ok status. Constructing from an ok status without a value is a
  /// programmer error.
  StatusOr(Status status) : status_(std::move(status)) {  // NOLINT
    SOFA_CHECK(!status_.ok()) << "StatusOr needs a value when ok";
  }
  StatusOr(T value) : value_(std::move(value)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  StatusCode code() const { return status_.code(); }
  bool operator==(StatusCode code) const { return status_.code() == code; }
  bool operator!=(StatusCode code) const { return status_.code() != code; }

  const T& value() const {
    SOFA_CHECK(ok()) << "value() on " << status_.ToString();
    return *value_;
  }
  T& value() {
    SOFA_CHECK(ok()) << "value() on " << status_.ToString();
    return *value_;
  }
  const T& operator*() const { return value(); }
  T& operator*() { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  Status status_;  // ok iff value_ holds
  std::optional<T> value_;
};

}  // namespace sofa

#endif  // SOFA_UTIL_STATUS_H_

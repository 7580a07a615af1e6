#ifndef CLOUDDB_COMMON_STATUS_H_
#define CLOUDDB_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace clouddb {

/// Canonical error codes, modelled after the RocksDB / Abseil status sets.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnavailable,
  kInternal,
};

/// Returns the canonical spelling of `code` (e.g. "InvalidArgument").
const char* StatusCodeToString(StatusCode code);

/// Lightweight result-of-operation type used throughout the library instead of
/// exceptions. A `Status` is either OK (the default) or carries a code and a
/// human-readable message. Cheap to copy in the OK case.
///
/// `[[nodiscard]]` on the class makes the compiler flag any call site that
/// drops a returned Status on the floor, and the build's
/// -Werror=unused-result turns that into an error; discard deliberately with
/// a `(void)` cast.
class [[nodiscard]] Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  // Factory helpers, one per canonical code.
  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsAlreadyExists() const { return code_ == StatusCode::kAlreadyExists; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsInternal() const { return code_ == StatusCode::kInternal; }

  /// "OK" or "<Code>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& s);

}  // namespace clouddb

/// Evaluates `expr` (a Status expression); returns it from the enclosing
/// function if it is not OK.
#define CLOUDDB_RETURN_IF_ERROR(expr)                \
  do {                                               \
    ::clouddb::Status _st = (expr);                  \
    if (!_st.ok()) return _st;                       \
  } while (0)

#endif  // CLOUDDB_COMMON_STATUS_H_

// Lightweight error handling for EvoStore.
//
// EvoStore avoids exceptions on its data paths (they interact badly with the
// coroutine-based simulation scheduler and with HPC-style hot loops).
// Instead, fallible operations return `Status` or `Result<T>`.
#pragma once

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace evostore::common {

/// Error categories, deliberately coarse: callers branch on "what kind of
/// failure", not on exact causes (those live in the message).
enum class ErrorCode {
  kOk = 0,
  kNotFound,
  kAlreadyExists,
  kInvalidArgument,
  kFailedPrecondition,
  kOutOfRange,
  kCorruption,
  kIoError,
  kUnavailable,
  kInternal,
  // Appended (never reorder: codes are serialized as integers on the wire).
  kDeadlineExceeded,
  kUnimplemented,
};

/// True for failures a caller may transparently retry: the operation may
/// succeed against the same node later (it was down, the message was lost,
/// or the deadline fired). Permanent errors (NotFound, InvalidArgument,
/// Corruption, ...) are excluded.
inline bool is_retryable(ErrorCode code) {
  return code == ErrorCode::kUnavailable || code == ErrorCode::kDeadlineExceeded;
}

/// Human-readable name of an error code ("NotFound", ...).
std::string_view error_code_name(ErrorCode code);

/// A success-or-error value. Cheap to copy on success (no allocation).
class Status {
 public:
  Status() = default;
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status NotFound(std::string m) { return {ErrorCode::kNotFound, std::move(m)}; }
  static Status AlreadyExists(std::string m) { return {ErrorCode::kAlreadyExists, std::move(m)}; }
  static Status InvalidArgument(std::string m) { return {ErrorCode::kInvalidArgument, std::move(m)}; }
  static Status FailedPrecondition(std::string m) { return {ErrorCode::kFailedPrecondition, std::move(m)}; }
  static Status OutOfRange(std::string m) { return {ErrorCode::kOutOfRange, std::move(m)}; }
  static Status Corruption(std::string m) { return {ErrorCode::kCorruption, std::move(m)}; }
  static Status IoError(std::string m) { return {ErrorCode::kIoError, std::move(m)}; }
  static Status Unavailable(std::string m) { return {ErrorCode::kUnavailable, std::move(m)}; }
  static Status Internal(std::string m) { return {ErrorCode::kInternal, std::move(m)}; }
  static Status DeadlineExceeded(std::string m) { return {ErrorCode::kDeadlineExceeded, std::move(m)}; }
  static Status Unimplemented(std::string m) { return {ErrorCode::kUnimplemented, std::move(m)}; }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "Ok" or "NotFound: no such model".
  std::string to_string() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

/// The first failure of a sequence of steps: `acc` if it already failed,
/// else `next`.
inline Status combine(Status acc, const Status& next) {
  return acc.ok() ? next : acc;
}

/// A value of type T, or the Status explaining why there is none.
template <typename T>
class Result {
 public:
  Result(T value) : var_(std::move(value)) {}  // NOLINT: implicit by design
  Result(Status status) : var_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(var_).ok() && "Result<T> must not hold an Ok status");
  }

  bool ok() const { return std::holds_alternative<T>(var_); }
  explicit operator bool() const { return ok(); }

  const Status& status() const {
    static const Status ok_status;
    return ok() ? ok_status : std::get<Status>(var_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(var_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(var_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(var_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

  T value_or(T fallback) const& { return ok() ? value() : std::move(fallback); }

 private:
  std::variant<T, Status> var_;
};

/// Propagate a non-Ok status out of the enclosing function.
#define EVO_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::evostore::common::Status _evo_st = (expr);   \
    if (!_evo_st.ok()) return _evo_st;             \
  } while (0)

/// Assign from a Result<T> or propagate its error.
#define EVO_ASSIGN_OR_RETURN(lhs, expr)            \
  auto _evo_res_##__LINE__ = (expr);               \
  if (!_evo_res_##__LINE__.ok()) return _evo_res_##__LINE__.status(); \
  lhs = std::move(_evo_res_##__LINE__).value()

}  // namespace evostore::common

#pragma once

/// \file status.hpp
/// Error vocabulary of the public API surface: rlc::Status and
/// rlc::StatusOr<T>.
///
/// Boundary rule (see DESIGN.md "Errors"): exceptions are an INTERNAL
/// mechanism — deep numeric code throws rlc::NoConvergenceError when a
/// solve fails and std::invalid_argument / std::domain_error on bad input,
/// and the cooperative-cancellation checkpoints unwind with
/// rlc::CancelledError.  No exception crosses a
/// public entry point of the redesigned surface (rlc::svc, the checked
/// scenario/optimizer entry points): those catch at the boundary and
/// return a Status with a typed code instead, so callers dispatch on
/// status.code() rather than on exception types.

#include <new>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

namespace rlc {

/// Typed error codes of the public surface.  Stable small integers: they
/// are stamped into rlc_serve responses, so renumbering is a wire break.
enum class StatusCode : int {
  kOk = 0,
  kInvalidArgument = 1,   ///< malformed request / out-of-domain parameter
  kNotFound = 2,          ///< unknown scenario / technology name
  kNoConvergence = 3,     ///< solver exhausted its budget without an answer
  kDeadlineExceeded = 4,  ///< cooperative deadline fired inside a solve
  kCancelled = 5,         ///< cancellation token fired inside a solve
  kInternal = 6,          ///< unexpected exception caught at the boundary
};

/// Canonical lower-snake-case name ("ok", "invalid_argument", ...), the
/// spelling used in rlc_serve responses and logs.
const char* status_code_name(StatusCode code);

class [[nodiscard]] Status {
 public:
  /// Default is success (so `return {};` works from Status functions).
  Status() = default;
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status ok() { return {}; }
  static Status invalid_argument(std::string m) {
    return {StatusCode::kInvalidArgument, std::move(m)};
  }
  static Status not_found(std::string m) {
    return {StatusCode::kNotFound, std::move(m)};
  }
  static Status no_convergence(std::string m) {
    return {StatusCode::kNoConvergence, std::move(m)};
  }
  static Status deadline_exceeded(std::string m) {
    return {StatusCode::kDeadlineExceeded, std::move(m)};
  }
  static Status cancelled(std::string m) {
    return {StatusCode::kCancelled, std::move(m)};
  }
  static Status internal(std::string m) {
    return {StatusCode::kInternal, std::move(m)};
  }

  bool is_ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  const char* code_name() const { return status_code_name(code_); }

  /// "ok" or "<code_name>: <message>".
  std::string to_string() const;

  bool operator==(const Status& o) const = default;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Thrown by numeric code whose solve exhausted its budget without an
/// answer (a delay root that was never bracketed, a boundary solve whose
/// inner delay failed).  Internal unwind mechanism only: the checked
/// entry points and rlc::svc map it to a no_convergence Status.
class NoConvergenceError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
  Status to_status() const { return Status::no_convergence(what()); }
};

/// Thrown by callers that insist on a value from a failed StatusOr.
class BadStatusAccess : public std::logic_error {
 public:
  explicit BadStatusAccess(const Status& s)
      : std::logic_error("StatusOr::value() on error status: " +
                         s.to_string()),
        status_(s) {}
  const Status& status() const { return status_; }

 private:
  Status status_;
};

/// A value or the Status explaining its absence.  Construction from a T is
/// implicit (so `return result;` works), as is construction from a non-ok
/// Status (so `return Status::invalid_argument(...)` works); constructing
/// from an OK status is a logic error and throws.
template <typename T>
class [[nodiscard]] StatusOr {
 public:
  StatusOr(T value)  // NOLINT(runtime/explicit)
      : has_value_(true) {
    ::new (static_cast<void*>(&storage_)) T(std::move(value));
  }
  StatusOr(Status status)  // NOLINT(runtime/explicit)
      : status_(std::move(status)) {
    if (status_.is_ok()) {
      throw std::logic_error("StatusOr constructed from an OK status");
    }
  }

  StatusOr(const StatusOr& o) : status_(o.status_), has_value_(o.has_value_) {
    if (has_value_) ::new (static_cast<void*>(&storage_)) T(o.ref());
  }
  StatusOr(StatusOr&& o) noexcept(std::is_nothrow_move_constructible_v<T>)
      : status_(std::move(o.status_)), has_value_(o.has_value_) {
    if (has_value_) ::new (static_cast<void*>(&storage_)) T(std::move(o.ref()));
  }
  // Assignment constructs into storage FIRST and flips has_value_ only on
  // success: if T's copy/move constructor throws, the destructor must not
  // run ~T over uninitialized storage.  (Basic guarantee: on throw *this is
  // valueless with the source's status.)
  StatusOr& operator=(const StatusOr& o) {
    if (this != &o) {
      destroy();
      status_ = o.status_;
      if (o.has_value_) {
        ::new (static_cast<void*>(&storage_)) T(o.ref());
        has_value_ = true;
      }
    }
    return *this;
  }
  StatusOr& operator=(StatusOr&& o) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &o) {
      destroy();
      status_ = std::move(o.status_);
      if (o.has_value_) {
        ::new (static_cast<void*>(&storage_)) T(std::move(o.ref()));
        has_value_ = true;
      }
    }
    return *this;
  }
  ~StatusOr() { destroy(); }

  bool is_ok() const { return has_value_; }
  /// OK when a value is present, the carried error otherwise.
  const Status& status() const { return status_; }

  /// The value; throws BadStatusAccess when holding an error.
  const T& value() const& {
    if (!has_value_) throw BadStatusAccess(status_);
    return ref();
  }
  T& value() & {
    if (!has_value_) throw BadStatusAccess(status_);
    return ref();
  }
  T&& value() && {
    if (!has_value_) throw BadStatusAccess(status_);
    return std::move(ref());
  }

  /// Unchecked access for the `if (r.is_ok())` pattern.
  const T& operator*() const& { return ref(); }
  T& operator*() & { return ref(); }
  const T* operator->() const { return &ref(); }
  T* operator->() { return &ref(); }

  T value_or(T fallback) const& {
    return has_value_ ? ref() : std::move(fallback);
  }

 private:
  const T& ref() const { return *std::launder(reinterpret_cast<const T*>(&storage_)); }
  T& ref() { return *std::launder(reinterpret_cast<T*>(&storage_)); }
  void destroy() {
    if (has_value_) {
      ref().~T();
      has_value_ = false;
    }
  }

  Status status_;
  alignas(T) unsigned char storage_[sizeof(T)];
  bool has_value_ = false;
};

}  // namespace rlc

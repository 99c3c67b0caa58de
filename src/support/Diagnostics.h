//===- support/Diagnostics.h - Structured error/diagnostic types ----------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diagnostics subsystem: a typed Error (category code + message +
/// context chain) and the ErrorOr<T> carrier threaded through every
/// recoverable path of the generation pipeline — parsing, suite loading,
/// enumeration and code emission. Programmatic invariants still use
/// assert(); everything an adversarial *input* can trigger must come back
/// as one of these instead of aborting.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_DIAGNOSTICS_H
#define COGENT_SUPPORT_DIAGNOSTICS_H

#include <cassert>
#include <optional>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace cogent {

/// Coarse failure categories, stable across message-wording changes so
/// callers can branch (and tests can assert) on the *kind* of failure.
enum class ErrorCode {
  /// Unclassified failure (the legacy message-only constructor).
  Unknown,
  /// Malformed contraction spec, extents map or suite entry.
  InvalidSpec,
  /// An extent product no longer fits signed 64-bit arithmetic.
  ExtentOverflow,
  /// The device cannot host any kernel for this problem (and no fallback
  /// was permitted to absorb it).
  ResourceExhausted,
  /// A caller-imposed GenerationBudget stopped the work.
  BudgetExceeded,
  /// Enumeration produced no valid configuration.
  NoValidConfig,
  /// A DeviceSpec failed DeviceSpec::validate() (zero SM count, zero
  /// shared memory, non-128-multiple transaction size, ...).
  InvalidDeviceSpec,
  /// A KernelPlan (or emitted source) failed the PlanVerifier's invariant
  /// checks and no fallback rung could absorb the failure.
  VerificationFailed,
  /// A request's wall-clock deadline was already spent before any work
  /// could begin (deadlines that expire mid-run degrade to cheaper
  /// fallback rungs instead — see service::GenerationService).
  DeadlineExceeded,
  /// The service's admission control shed the request: total outstanding
  /// work exceeds the configured limit. Retry after backoff.
  Overloaded,
  /// The service's bounded intake queue is at capacity (load shedding at
  /// the enqueue boundary, never a blocking producer). Retry after
  /// backoff.
  QueueFull,
  /// The service stopped while the request was queued or in flight; the
  /// request was abandoned, not silently dropped.
  ServiceStopped,
};

/// Number of ErrorCode enumerators; keep in sync when extending the enum
/// (the name-table round-trip test walks [0, NumErrorCodes)).
inline constexpr unsigned NumErrorCodes = 12;

/// Stable identifier string, e.g. "InvalidSpec".
const char *errorCodeName(ErrorCode Code);

/// Inverse of errorCodeName; nullopt for unknown strings.
std::optional<ErrorCode> errorCodeFromName(const std::string &Name);

/// Transient/permanent classification, the retry policy's oracle: true for
/// failures where an identical retry has a real chance of succeeding —
/// load shedding (Overloaded, QueueFull) and verification failures
/// (VerificationFailed, which injected faults and mid-run device mutations
/// can cause and a re-run can rescue). Everything input-shaped (InvalidSpec,
/// ExtentOverflow, InvalidDeviceSpec, ...), budget-shaped
/// (BudgetExceeded, DeadlineExceeded) or terminal (ServiceStopped) is
/// permanent: retrying cannot change the outcome.
bool isTransient(ErrorCode Code);

/// Describes a recoverable failure: a category code, a primary message and
/// an optional chain of context frames added as the error propagates out
/// ("while loading suite line 12", ...). Outermost frame first.
class Error {
public:
  explicit Error(std::string Message)
      : Code_(ErrorCode::Unknown), Message_(std::move(Message)) {}
  Error(ErrorCode Code, std::string Message)
      : Code_(Code), Message_(std::move(Message)) {}

  ErrorCode code() const { return Code_; }

  /// The primary message, without context frames.
  const std::string &message() const { return Message_; }

  /// Context frames, outermost first.
  const std::vector<std::string> &context() const { return Context_; }

  /// Returns *this with \p Frame prepended to the context chain. Chainable:
  /// Error(...).withContext("parsing X").withContext("loading file Y").
  Error withContext(std::string Frame) &&;
  Error withContext(std::string Frame) const &;

  /// "context1: context2: message" (no code name; see renderWithCode).
  std::string render() const;

  /// "InvalidSpec: context: message" — the CLI-facing form.
  std::string renderWithCode() const;

private:
  ErrorCode Code_;
  std::string Message_;
  std::vector<std::string> Context_;
};

/// Holds either a successfully produced \p T or an Error.
///
/// Unlike llvm::Expected, destruction of an unchecked error does not abort;
/// callers are expected to branch on the boolean conversion before access.
template <typename T> class ErrorOr {
public:
  ErrorOr(T Value) : Storage(std::move(Value)) {}
  ErrorOr(Error E) : Storage(std::move(E)) {}

  /// True when a value is present.
  explicit operator bool() const { return std::holds_alternative<T>(Storage); }

  bool hasValue() const { return std::holds_alternative<T>(Storage); }

  T &get() {
    assert(hasValue() && "accessing value of an error result");
    return std::get<T>(Storage);
  }
  const T &get() const {
    assert(hasValue() && "accessing value of an error result");
    return std::get<T>(Storage);
  }

  T &operator*() { return get(); }
  const T &operator*() const { return get(); }
  T *operator->() { return &get(); }
  const T *operator->() const { return &get(); }

  /// The held error. Only valid when !hasValue().
  const Error &error() const {
    assert(!hasValue() && "accessing error of a value result");
    return std::get<Error>(Storage);
  }

  /// Category code of the held error.
  ErrorCode errorCode() const { return error().code(); }

  /// Rendered message (context chain + primary message) of the held error.
  std::string errorMessage() const { return error().render(); }

  /// Moves the error out (for re-wrapping into a different ErrorOr<U>).
  Error takeError() {
    assert(!hasValue() && "taking error of a value result");
    return std::get<Error>(std::move(Storage));
  }

  /// Applies \p Fn to the value, passing an error through untouched:
  /// ErrorOr<T> -> ErrorOr<decltype(Fn(T))>.
  template <typename Fn> auto map(Fn &&F) && -> ErrorOr<decltype(F(std::declval<T &&>()))> {
    if (!hasValue())
      return takeError();
    return F(std::get<T>(std::move(Storage)));
  }

  /// Adds a context frame to the held error, if any; values pass through.
  ErrorOr<T> withContext(std::string Frame) && {
    if (hasValue())
      return std::move(*this);
    return takeError().withContext(std::move(Frame));
  }

private:
  std::variant<T, Error> Storage;
};

/// Success-or-Error for operations with no payload (validators, verifiers).
/// Default construction is success; mirrors the ErrorOr<T> accessors so
/// call sites and tests treat both uniformly.
template <> class ErrorOr<void> {
public:
  ErrorOr() = default;
  ErrorOr(Error E) : Err(std::move(E)) {}

  /// True on success.
  explicit operator bool() const { return !Err.has_value(); }
  bool hasValue() const { return !Err.has_value(); }

  /// The held error. Only valid when !hasValue().
  const Error &error() const {
    assert(Err.has_value() && "accessing error of a success result");
    return *Err;
  }

  ErrorCode errorCode() const { return error().code(); }
  std::string errorMessage() const { return error().render(); }

  Error takeError() {
    assert(Err.has_value() && "taking error of a success result");
    Error Out = std::move(*Err);
    Err.reset();
    return Out;
  }

  /// Adds a context frame to the held error, if any; success passes
  /// through.
  ErrorOr<void> withContext(std::string Frame) && {
    if (hasValue())
      return {};
    return takeError().withContext(std::move(Frame));
  }

private:
  std::optional<Error> Err;
};

} // namespace cogent

#endif // COGENT_SUPPORT_DIAGNOSTICS_H

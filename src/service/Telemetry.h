//===- service/Telemetry.h - Request timeline event names -----------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The name tables of the generation service's request timelines. Every
/// admitted (or shed) request carries a monotonically-assigned request
/// id, and the service narrates its whole lifecycle as typed events:
///
///   submitted -> dequeued -> [deadline-band] -> attempt-start
///             -> [breaker-transition | cache-hit | cache-quarantine
///                 | attempt-failed -> backoff -> attempt-start ...]
///             -> completed | failed            (or shed straight after
///                                               submitted)
///
/// Exactly one terminal event (completed / failed / shed) closes every
/// timeline — the event mirror of the ServiceStats conservation law —
/// and test_telemetry holds chaos-stormed runs to it.
///
/// An event is one "service.<kind>" instant in the active Chrome-trace
/// session (support/Trace.h), with "request" and "detail" args, so
/// request lifecycles interleave with the pipeline's spans. The trace is
/// the timeline's only store; with no session active, recording an event
/// is one counter increment (GenerationService's
/// "telemetry.events-recorded").
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SERVICE_TELEMETRY_H
#define COGENT_SERVICE_TELEMETRY_H

#include <optional>
#include <string>

namespace cogent {
namespace service {

/// Circuit-breaker states (docs/ARCHITECTURE.md §15). Lives here rather
/// than in GenerationService so the names in a breaker transition's trace
/// detail ("closed->open") are a public, round-trip-tested name set.
enum class BreakerState : unsigned { Closed, Open, HalfOpen };

/// Number of BreakerState enumerators; keep in sync when extending the
/// enum (the name-table round-trip test walks [0, NumBreakerStates)).
inline constexpr unsigned NumBreakerStates = 3;

/// "closed", "open" or "half-open".
const char *breakerStateName(BreakerState S);

/// Inverse of breakerStateName; nullopt for unknown strings.
std::optional<BreakerState> breakerStateFromName(const std::string &Name);

/// The typed request-lifecycle events, recorded as trace instants; the
/// name table is pinned by test_name_tables.
enum class RequestEventKind : unsigned {
  /// Request entered submit(). Always a timeline's first event.
  Submitted,
  /// Admission control refused the request (queue-full / overloaded /
  /// pre-expired deadline / stopped service). Terminal.
  Shed,
  /// A worker picked the request off the queue; detail carries the queue
  /// wait in ms.
  Dequeued,
  /// Remaining deadline re-banded the run onto a degraded start rung.
  DeadlineBand,
  /// This request drove its signature's breaker through a state change;
  /// detail is "from->to" in breakerStateName labels.
  BreakerTransition,
  /// One generation attempt began; detail is the attempt ordinal.
  AttemptStart,
  /// The attempt failed; detail is the typed error code name.
  AttemptFailed,
  /// A transient failure is being retried after a backoff; detail is the
  /// backoff in ms.
  Backoff,
  /// Served by a checksum-valid cache entry.
  CacheHit,
  /// The lookup found its cache entry corrupt and evicted it (served
  /// fresh).
  CacheQuarantine,
  /// This request rode another in-flight request's generation.
  Coalesced,
  /// The request completed with a plan. Terminal.
  Completed,
  /// The request failed with a typed error; detail is the code name.
  /// Terminal.
  Failed,
};

/// Number of RequestEventKind enumerators; keep in sync when extending
/// the enum (the name-table round-trip test walks [0,
/// NumRequestEventKinds)).
inline constexpr unsigned NumRequestEventKinds = 13;

/// The kind's trace instant name, e.g. "service.deadline-band".
const char *requestEventTraceName(RequestEventKind Kind);

/// Kebab-case label, e.g. "deadline-band": the trace name without its
/// "service." prefix.
const char *requestEventKindName(RequestEventKind Kind);

/// Inverse of requestEventKindName; nullopt for unknown strings.
std::optional<RequestEventKind>
requestEventKindFromName(const std::string &Name);

/// True for the three timeline-closing kinds: Shed, Completed, Failed.
bool isTerminalEvent(RequestEventKind Kind);

} // namespace service
} // namespace cogent

#endif // COGENT_SERVICE_TELEMETRY_H

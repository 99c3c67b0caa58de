//===- service/Telemetry.h - Request timelines and service metrics --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-request observability for the generation service. Every admitted
/// (or shed) request carries a monotonically-assigned request id, and the
/// service narrates its whole lifecycle as a typed event timeline:
///
///   submitted -> dequeued -> [deadline-band] -> attempt-start
///             -> [breaker-transition | cache-hit | cache-quarantine
///                 | attempt-failed -> backoff -> attempt-start ...]
///             -> completed | failed            (or shed straight after
///                                               submitted)
///
/// Exactly one terminal event (completed / failed / shed) closes every
/// timeline — the event-log mirror of the ServiceStats conservation law —
/// and test_telemetry holds chaos-stormed runs to it.
///
/// Each event is (1) retained in a bounded in-memory ring for snapshots
/// and tests, (2) mirrored as an instant into the active Chrome-trace
/// session (support/Trace.h) so request lifecycles interleave with the
/// pipeline's spans, and (3) optionally streamed to a JSON-lines sink —
/// one self-contained JSON object per line, the grep-able production log.
///
/// ServiceTelemetry also owns the service's MetricRegistry
/// (support/Metrics.h), the one store of the service's counters (its own
/// event tallies, the service's request tallies), latency/queue-wait
/// histograms and liveness gauges, exported as a JSON snapshot by
/// GenerationService::telemetrySnapshot().
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SERVICE_TELEMETRY_H
#define COGENT_SERVICE_TELEMETRY_H

#include "support/Metrics.h"

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace cogent {
namespace service {

/// Circuit-breaker states (docs/ARCHITECTURE.md §15). Lives here rather
/// than in GenerationService so the exporter label table is a public,
/// round-trip-tested name set.
enum class BreakerState : unsigned { Closed, Open, HalfOpen };

/// Number of BreakerState enumerators; keep in sync when extending the
/// enum (the name-table round-trip test walks [0, NumBreakerStates)).
inline constexpr unsigned NumBreakerStates = 3;

/// "closed", "open" or "half-open".
const char *breakerStateName(BreakerState S);

/// Inverse of breakerStateName; nullopt for unknown strings.
std::optional<BreakerState> breakerStateFromName(const std::string &Name);

/// The typed request-lifecycle events. Serialized into the event log and
/// trace instants; the name table is pinned by test_name_tables.
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

/// Kebab-case label, e.g. "deadline-band".
const char *requestEventKindName(RequestEventKind Kind);

/// Inverse of requestEventKindName; nullopt for unknown strings.
std::optional<RequestEventKind>
requestEventKindFromName(const std::string &Name);

/// True for the three timeline-closing kinds: Shed, Completed, Failed.
bool isTerminalEvent(RequestEventKind Kind);

/// One recorded lifecycle event.
struct RequestEvent {
  uint64_t RequestId = 0;
  RequestEventKind Kind = RequestEventKind::Submitted;
  /// Milliseconds since the owning ServiceTelemetry was constructed.
  double AtMs = 0.0;
  /// Kind-specific payload (rung name, error code, "open->half-open",
  /// queue wait, ...). Free-form but short.
  std::string Detail;

  /// This event as one self-contained JSON object, e.g.
  /// {"request":7,"event":"completed","at_ms":1.25,"detail":""} — the
  /// JSON-lines log format.
  std::string toJson() const;
};

/// Telemetry configuration for one service instance.
struct TelemetryOptions {
  /// Events retained in memory (a ring: oldest dropped first, dropped
  /// count exposed). Sized so tests and snapshots see whole workloads;
  /// production sinks should stream via EventLogJsonlPath instead.
  size_t EventCapacity = 1 << 15;
  /// Shards per histogram (per-worker contention vs merge cost).
  size_t HistogramShards = 8;
  /// When non-empty, every event is appended to this file as one JSON
  /// object per line, as it happens. Open/write failures disable the sink
  /// (telemetry must never take the service down).
  std::string EventLogJsonlPath;
};

/// Thread-safe telemetry hub owned by one GenerationService: request-id
/// allocation, the bounded event log (+ trace mirror + JSONL sink) and
/// the metric registry.
class ServiceTelemetry {
public:
  explicit ServiceTelemetry(TelemetryOptions Options = TelemetryOptions());
  ~ServiceTelemetry();

  ServiceTelemetry(const ServiceTelemetry &) = delete;
  ServiceTelemetry &operator=(const ServiceTelemetry &) = delete;

  /// Allocates the next request id (1-based, monotonic).
  uint64_t beginRequest();

  /// Records one event: appends to the ring (dropping the oldest past
  /// capacity), streams to the JSONL sink when open, and mirrors a
  /// "service.<kind>" instant into the active trace session.
  void recordEvent(uint64_t RequestId, RequestEventKind Kind,
                   std::string Detail = std::string());

  /// Milliseconds since construction (the event timestamp base).
  double nowMs() const;

  support::MetricRegistry &registry() { return Registry; }
  const support::MetricRegistry &registry() const { return Registry; }

  /// Copy of the retained events, in record order.
  std::vector<RequestEvent> events() const;
  /// Events recorded so far (including any dropped from the ring).
  uint64_t eventsRecorded() const;
  /// Events evicted from the ring because it was full.
  uint64_t eventsDropped() const;

private:
  TelemetryOptions Options;
  std::chrono::steady_clock::time_point Epoch;
  std::atomic<uint64_t> NextRequestId{0};

  mutable std::mutex EventsLock;
  std::deque<RequestEvent> Events;
  std::FILE *JsonlSink = nullptr;

  support::MetricRegistry Registry;
  /// "telemetry.events-recorded" / "telemetry.events-dropped" in Registry.
  support::MetricCounter &Recorded;
  support::MetricCounter &Dropped;
};

} // namespace service
} // namespace cogent

#endif // COGENT_SERVICE_TELEMETRY_H

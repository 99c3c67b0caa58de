//===- support/Trace.h - Scoped spans with a Chrome-trace JSON sink -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Wall-clock tracing for the generation pipeline: RAII TraceSpan objects
/// record Chrome trace-event "complete" (ph:"X") events, traceInstant
/// records point events (fallback rungs, budget trips), and TraceSession is
/// the thread-safe process-wide sink that serializes everything as Chrome
/// trace-event JSON — load the file in chrome://tracing or
/// https://ui.perfetto.dev to see the pipeline's phase breakdown.
///
/// Enabling is per-run: construct a TraceSession, point
/// CogentOptions::Trace at it (or install it directly with
/// ScopedTraceActivation), and write the file afterwards. When no session
/// is active, creating a span is one relaxed atomic load, a branch and a
/// monotonic clock read (kept so PhaseTimings work untraced) — no
/// allocation, no recorded state — so instrumentation can stay in release
/// builds.
///
/// Span taxonomy ("<component>.<phase>", see docs/ARCHITECTURE.md §10):
/// cogent.parse / cogent.enumerate / cogent.rank / cogent.emit /
/// cogent.fallback, sim.kernel, autotune.refine, ...
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_TRACE_H
#define COGENT_SUPPORT_TRACE_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cogent {
namespace support {

/// One recorded trace event, in Chrome trace-event terms.
struct TraceEvent {
  /// Static string (span names are compile-time literals).
  const char *Name = "";
  /// 'X' = complete (has DurationUs), 'i' = instant.
  char Phase = 'X';
  /// Microseconds since the session's epoch.
  double TimestampUs = 0.0;
  double DurationUs = 0.0;
  /// Small dense per-thread id (not the OS tid).
  uint32_t ThreadId = 0;
  /// Optional string arguments shown in the trace viewer.
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Thread-safe in-memory event sink for one tracing run.
class TraceSession {
public:
  TraceSession();
  /// Deactivates itself if still installed (defensive; normal users go
  /// through ScopedTraceActivation or CogentOptions and never leave a
  /// dangling active session).
  ~TraceSession();

  TraceSession(const TraceSession &) = delete;
  TraceSession &operator=(const TraceSession &) = delete;

  /// Appends one event (thread-safe).
  void record(TraceEvent Event);

  /// Microseconds since this session was constructed.
  double nowUs() const {
    return sinceEpochUs(std::chrono::steady_clock::now());
  }
  /// Microseconds from this session's construction to \p Time.
  double sinceEpochUs(std::chrono::steady_clock::time_point Time) const;

  size_t eventCount() const;
  /// Copy of the recorded events, in record order.
  std::vector<TraceEvent> events() const;

  /// Serializes as Chrome trace-event JSON ({"traceEvents": [...]}).
  std::string toChromeTraceJson() const;
  /// toChromeTraceJson to a file; false on I/O failure.
  bool writeChromeTrace(const std::string &Path) const;

private:
  mutable std::mutex Mutex;
  std::vector<TraceEvent> Events;
  std::chrono::steady_clock::time_point Epoch;
};

/// The currently installed sink, or nullptr when tracing is off.
TraceSession *activeTraceSession();

/// Installs \p Session process-wide for this object's lifetime, restoring
/// the previous sink on destruction. A null \p Session is a no-op (the
/// previous sink, if any, stays active) so callers can pass their options
/// pointer through unconditionally.
class ScopedTraceActivation {
public:
  explicit ScopedTraceActivation(TraceSession *Session);
  ~ScopedTraceActivation();

  ScopedTraceActivation(const ScopedTraceActivation &) = delete;
  ScopedTraceActivation &operator=(const ScopedTraceActivation &) = delete;

private:
  TraceSession *Previous = nullptr;
  bool Installed = false;
};

/// RAII span: records one 'X' event covering its lifetime on the active
/// session. Captures the session at construction, so a span spans
/// consistently even if the active session changes while it is open.
class TraceSpan {
public:
  explicit TraceSpan(const char *Name);
  ~TraceSpan();

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

  /// True when a session is recording this span.
  bool live() const { return Session != nullptr; }

  /// Attaches a key/value argument (no-op when not live).
  void arg(const char *Key, std::string Value) {
    if (Session)
      Args.emplace_back(Key, std::move(Value));
  }

  /// Elapsed milliseconds since construction (works with tracing off; used
  /// for PhaseTimings).
  double elapsedMs() const;

private:
  TraceSession *Session;
  const char *Name;
  std::chrono::steady_clock::time_point Start;
  std::vector<std::pair<std::string, std::string>> Args;
};

/// Records one instant event on the active session (no-op when off).
void traceInstant(
    const char *Name,
    std::vector<std::pair<std::string, std::string>> Args = {});

/// This thread's small dense id (0 for the first thread that asks).
uint32_t traceThreadId();

} // namespace support
} // namespace cogent

#endif // COGENT_SUPPORT_TRACE_H

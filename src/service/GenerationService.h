//===- service/GenerationService.h - Resilient generation front-end -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Kernel generation as a service: a bounded-queue worker pool in front of
/// Cogent::generate built to serve heavy concurrent traffic without
/// falling over. Robustness mechanisms, each observable in ServiceStats:
///
///  - Admission control and load shedding: a full intake queue is a typed
///    ErrorCode::QueueFull, too much outstanding work a typed
///    ErrorCode::Overloaded — callers are told to back off, never blocked
///    or hung.
///  - Deadline propagation: each request carries a wall-clock budget; the
///    remaining budget at execution time is split across pipeline phases
///    (the enumerate share flows into GenerationBudget::DeadlineMs), and
///    when it runs low the run *degrades* to a cheaper fallback rung
///    (CogentOptions::StartRung -> minimal-tile, then TTGT) instead of
///    erroring. Even a deadline that expired while queued produces the
///    TTGT plan — a degraded answer, never a hang and never a silent drop.
///  - Retry with exponential backoff: attempts that fail with a transient
///    error (isTransient(ErrorCode)) are re-run with doubled backoff, each
///    attempt under a distinct deterministic chaos seed so injected
///    faults model *transient* infrastructure trouble.
///  - Singleflight coalescing: concurrent requests for one contraction
///    signature generate once; followers receive the leader's plan.
///  - Sharded plan cache: warm requests are served by the
///    ShardedKernelRepository (per-shard locking, checksum-guarded
///    entries, corrupt-entry quarantine); a background repair pass
///    (rebuildQuarantined) rides the worker pool.
///  - Circuit breaker: a signature whose full-pipeline runs keep hitting
///    verifier/lint rejections trips to the TTGT rung for a cooldown
///    (closed -> open -> half-open probe -> closed), so a pathological
///    contraction cannot keep burning retries in the expensive pipeline.
///
/// Each service fact is counted once, as a counter in the telemetry
/// registry (service/Telemetry.h); ServiceStats, the JSON snapshot and the
/// Prometheus text are views over those counters.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SERVICE_GENERATIONSERVICE_H
#define COGENT_SERVICE_GENERATIONSERVICE_H

#include "core/Cogent.h"
#include "core/KernelRepository.h"
#include "gpu/DeviceSpec.h"
#include "service/Telemetry.h"
#include "support/Diagnostics.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace cogent {
namespace service {

/// Tuning knobs for one service instance. The defaults suit tests and
/// small tools; bench_service and production-style callers raise the
/// worker count and queue sizes.
struct ServiceOptions {
  /// Worker threads draining the queue. 0 is permitted (requests queue
  /// until resume()/stop(); useful for deterministic shedding tests).
  unsigned NumWorkers = 4;
  /// Intake queue capacity; a submit beyond it sheds with QueueFull.
  size_t QueueCapacity = 256;
  /// Cap on requests admitted but not yet completed (queued + executing +
  /// coalesced); beyond it a submit sheds with Overloaded.
  size_t MaxOutstanding = 1024;
  /// Extra attempts after the first for transiently-failed requests.
  unsigned MaxRetries = 2;
  /// Exponential backoff between attempts: Base * 2^(attempt-1), capped.
  double RetryBackoffBaseMs = 0.25;
  double RetryBackoffMaxMs = 4.0;
  /// Deadline applied to requests that carry none. 0 = unbounded.
  double DefaultDeadlineMs = 0.0;
  /// Remaining-budget thresholds for graceful degradation: below
  /// DegradeMinimalTileMs the run starts at the minimal-tile rung, below
  /// DegradeTtgtMs (or with the budget already spent) at the TTGT rung.
  double DegradeMinimalTileMs = 25.0;
  double DegradeTtgtMs = 6.0;
  /// Share of the remaining budget granted to the enumeration phase when
  /// the run is not degraded (the rest covers rank + emit + verification).
  double EnumerateBudgetFraction = 0.6;
  /// Consecutive rejection-carrying full-pipeline runs of one signature
  /// that trip its breaker open.
  unsigned BreakerThreshold = 3;
  /// Open-state requests served degraded before the half-open probe.
  unsigned BreakerCooldownRequests = 8;
  /// Shards in the plan cache.
  size_t NumShards = 16;
  /// Observability: event-ring capacity, histogram sharding, optional
  /// JSON-lines event sink (see service/Telemetry.h).
  TelemetryOptions Telemetry;
  /// Base options for every generation run (element size, lint mode,
  /// chaos, ...). Budget/StartRung fields are overwritten per request by
  /// the deadline/breaker machinery.
  core::CogentOptions Generation;
  /// Derive a distinct deterministic chaos seed per (signature, attempt)
  /// from Generation.Chaos.Seed, so a retry does not deterministically
  /// replay the exact fault pattern that failed the previous attempt.
  bool ReseedChaosPerAttempt = true;
  /// Construct with workers parked (resume() starts draining). For tests
  /// that need a deterministically full queue.
  bool StartPaused = false;
};

/// One contraction request.
struct ServiceRequest {
  /// "C-A-B" index notation, as everywhere else.
  std::string Spec;
  /// Per-index extents.
  std::vector<std::pair<char, int64_t>> Extents;
  /// Wall-clock budget, milliseconds, measured from submit. 0 uses
  /// ServiceOptions::DefaultDeadlineMs; negative is already expired and
  /// sheds with DeadlineExceeded at submit.
  double DeadlineMs = 0.0;
  /// Skip the cache lookup (the fresh plan still refreshes the cache).
  /// For benchmarking the cold path and exercising the breaker.
  bool BypassCache = false;
};

/// A completed request's payload plus how the service produced it.
struct ServiceResult {
  /// The service-assigned request id; keys this request's event timeline
  /// in the telemetry log.
  uint64_t RequestId = 0;
  core::GeneratedKernel Kernel;
  core::FallbackLevel Fallback = core::FallbackLevel::None;
  /// Served from a checksum-valid cache entry.
  bool CacheHit = false;
  /// This request rode another in-flight request's generation.
  bool Coalesced = false;
  /// Deadline pressure forced a degraded start rung.
  bool DeadlineDegraded = false;
  /// The deadline had fully expired before execution; the TTGT rung was
  /// produced anyway (a degraded answer, not an error).
  bool DeadlineExpired = false;
  /// An open circuit breaker forced the TTGT rung.
  bool BreakerDegraded = false;
  /// This lookup evicted a corrupt cache entry (served fresh).
  bool Quarantined = false;
  /// Generation attempts consumed (1 = first try succeeded).
  unsigned Attempts = 1;
  /// Time spent queued before a worker picked the request up, ms.
  double QueueMs = 0.0;
  /// Submit-to-completion wall clock, ms.
  double TotalMs = 0.0;
};

/// Monotonic service-lifetime tallies: a point-in-time view of the
/// service's registry counters (the same values telemetrySnapshot exports
/// under "service.*" and "cache.*"). Completed + failed + the four shed
/// buckets equals submitted once the service is idle — nothing is ever
/// silently dropped, not even a submit after stop().
struct ServiceStats {
  uint64_t Submitted = 0;
  uint64_t Completed = 0;
  uint64_t Failed = 0;
  uint64_t ShedQueueFull = 0;
  uint64_t ShedOverloaded = 0;
  uint64_t ShedExpired = 0;
  /// Submits rejected because stop() had already run.
  uint64_t ShedStopped = 0;
  uint64_t Retries = 0;
  uint64_t Coalesced = 0;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  uint64_t Quarantined = 0;
  uint64_t BreakerTrips = 0;
  uint64_t BreakerResets = 0;
  uint64_t DeadlineDegraded = 0;
  uint64_t DeadlineExpired = 0;

  /// All four shed buckets.
  uint64_t shed() const {
    return ShedQueueFull + ShedOverloaded + ShedExpired + ShedStopped;
  }
};

/// Opaque handle to a submitted request; defined in the .cpp.
struct PendingRequest;

/// The service. One instance owns a generator bound to one device, a
/// sharded plan cache and a worker pool; submit/process are safe from any
/// number of client threads.
class GenerationService {
public:
  explicit GenerationService(gpu::DeviceSpec Device,
                             ServiceOptions Options = ServiceOptions());
  ~GenerationService();

  GenerationService(const GenerationService &) = delete;
  GenerationService &operator=(const GenerationService &) = delete;

  /// Non-blocking admission: returns a waitable handle, or sheds with a
  /// typed QueueFull / Overloaded / DeadlineExceeded / ServiceStopped
  /// error. Never blocks the caller on a full queue.
  ErrorOr<std::shared_ptr<PendingRequest>> submit(ServiceRequest Request);

  /// Blocks until \p Handle completes; returns its plan or typed error.
  ErrorOr<ServiceResult> wait(const std::shared_ptr<PendingRequest> &Handle);

  /// submit + wait.
  ErrorOr<ServiceResult> process(ServiceRequest Request);

  /// Submits every request, then waits for all. Index i of the output is
  /// request i's outcome (shed requests fail at their own index; the rest
  /// of the batch still runs).
  std::vector<ErrorOr<ServiceResult>>
  processBatch(const std::vector<ServiceRequest> &Requests);

  /// Park / unpark the workers (queued requests are held, not shed).
  void pause();
  void resume();

  /// Stops the pool: in-flight requests finish, queued ones fail with a
  /// typed ServiceStopped error, workers join. Idempotent; the destructor
  /// calls it.
  void stop();

  /// Runs one cache-repair pass (ShardedKernelRepository::
  /// rebuildQuarantined) on the calling thread; returns entries rebuilt.
  size_t repairCache();

  ServiceStats stats() const;
  const core::ShardedKernelRepository &repository() const { return Repo; }
  const gpu::DeviceSpec &device() const { return Generator.device(); }

  /// The telemetry hub: event timeline, metric registry, request ids.
  ServiceTelemetry &telemetry() { return Telem; }
  const ServiceTelemetry &telemetry() const { return Telem; }

  /// Point-in-time JSON snapshot of the whole registry (service counters,
  /// cache and process counters mirrored in, queue gauges refreshed,
  /// latency / queue-wait histograms): one {"counters":..,"gauges":..,
  /// "histograms":..} object. The cogent_cli --telemetry-json payload.
  std::string telemetrySnapshot() const;

  /// The same registry state in Prometheus text exposition format.
  std::string telemetryPrometheus() const;

  /// The \p P-th percentile (0..100) of \p SamplesMs; 0 when empty.
  /// Deprecated for service-side latency reporting — the service now keeps
  /// bounded histograms (telemetrySnapshot) instead of raw samples; this
  /// exact-sort helper remains for callers that collect their own samples
  /// (bench_service's warm-up slicing) and as the tests' reference
  /// implementation for the histogram error bound.
  static double percentileMs(std::vector<double> SamplesMs, double P);

private:
  void workerLoop();
  void execute(const std::shared_ptr<PendingRequest> &Job);
  void fulfill(const std::shared_ptr<PendingRequest> &Job,
               ErrorOr<ServiceResult> Outcome);
  /// Refreshes the liveness gauges and mirrors the cache and the process
  /// counter table into the telemetry registry; both exporters call this
  /// so a snapshot is always current.
  void syncRegistry() const;

  ServiceOptions Options;
  core::Cogent Generator;
  core::ShardedKernelRepository Repo;

  mutable std::mutex QueueLock;
  std::condition_variable QueueCv;
  std::deque<std::shared_ptr<PendingRequest>> Queue;
  bool Paused = false;
  bool Stopping = false;
  std::vector<std::thread> Workers;
  std::atomic<size_t> Outstanding{0};

  /// Singleflight table: signature -> leader's flight, holding the
  /// followers to fulfill when the leader finishes.
  struct Flight {
    std::vector<std::shared_ptr<PendingRequest>> Waiters;
  };
  std::mutex FlightsLock;
  std::unordered_map<std::string, Flight> Flights;

  /// Per-signature circuit breaker (see docs/ARCHITECTURE.md §15 for the
  /// state machine; states/labels in service/Telemetry.h).
  struct Breaker {
    BreakerState S = BreakerState::Closed;
    unsigned ConsecutiveRejections = 0;
    unsigned OpenServed = 0;
  };
  mutable std::mutex BreakersLock;
  std::unordered_map<std::string, Breaker> Breakers;

  /// Mutable so the const exporters can refresh the gauges (logically
  /// read-only).
  mutable ServiceTelemetry Telem;

  /// The service's counters and histograms, registered once in
  /// Telem.registry(). They are the only store of these facts: each event
  /// is one add/record, and stats() and both exporters read them back.
  struct ServiceMetrics {
    ServiceMetrics(support::MetricRegistry &R, size_t HistogramShards);
    support::MetricCounter &Submitted, &Completed, &Failed, &ShedQueueFull,
        &ShedOverloaded, &ShedExpired, &ShedStopped, &Retries, &Coalesced,
        &BreakerTrips, &BreakerResets, &DeadlineDegraded, &DeadlineExpired;
    support::ConcurrentHistogram &LatencyMs, &QueueWaitMs;
  };
  ServiceMetrics Metrics;
};

} // namespace service
} // namespace cogent

#endif // COGENT_SERVICE_GENERATIONSERVICE_H

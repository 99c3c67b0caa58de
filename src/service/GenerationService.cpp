//===- service/GenerationService.cpp --------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "service/GenerationService.h"

#include "support/FaultInjection.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <optional>

using namespace cogent;
using namespace cogent::service;
using core::CogentOptions;
using core::FallbackLevel;
using core::ShardedKernelRepository;

using Clock = std::chrono::steady_clock;

static double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// splitmix64-style mixer for deriving per-(signature, attempt) chaos
/// seeds; any deterministic avalanche works here.
static uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

static uint64_t fnv1a(const std::string &Data) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (unsigned char Ch : Data) {
    Hash ^= Ch;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

namespace cogent {
namespace service {

/// One admitted request's whole lifecycle: the request, its telemetry id,
/// its absolute deadline, and a one-shot promise (Outcome) the worker pool
/// fulfills.
struct PendingRequest {
  ServiceRequest Request;
  uint64_t RequestId = 0;
  Clock::time_point SubmittedAt;
  bool HasDeadline = false;
  Clock::time_point Deadline;

  std::mutex Lock;
  std::condition_variable Cv;
  std::optional<ErrorOr<ServiceResult>> Outcome;
};

} // namespace service
} // namespace cogent

GenerationService::GenerationService(gpu::DeviceSpec Device,
                                     ServiceOptions Opts)
    : Options(std::move(Opts)), Generator(std::move(Device)),
      Repo(Generator, Options.NumShards, Options.Generation),
      Telem(Options.Telemetry),
      Metrics(Telem.registry(), Options.Telemetry.HistogramShards) {
  Paused = Options.StartPaused;
  Workers.reserve(Options.NumWorkers);
  for (unsigned I = 0; I < Options.NumWorkers; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

GenerationService::ServiceMetrics::ServiceMetrics(support::MetricRegistry &R,
                                                 size_t HistogramShards)
    : Submitted(R.counter("service.submitted", "requests entering submit()")),
      Completed(R.counter("service.completed",
                          "requests fulfilled with a plan")),
      Failed(R.counter("service.failed",
                       "requests fulfilled with a typed error")),
      ShedQueueFull(R.counter("service.shed-queue-full",
                              "requests shed on a full intake queue")),
      ShedOverloaded(R.counter("service.shed-overloaded",
                               "requests shed at the outstanding-work limit")),
      ShedExpired(R.counter("service.shed-expired",
                            "requests shed with a pre-expired deadline")),
      ShedStopped(R.counter("service.shed-stopped",
                            "requests submitted after stop()")),
      Retries(R.counter("service.retries",
                        "attempts re-run after a transient failure")),
      Coalesced(R.counter("service.coalesced",
                          "requests that rode another request's generation")),
      BreakerTrips(R.counter("service.breaker-trips",
                             "circuit breakers tripped open")),
      BreakerResets(
          R.counter("service.breaker-resets",
                    "breakers closed again by a clean half-open probe")),
      DeadlineDegraded(R.counter(
          "service.deadline-degraded",
          "requests forced onto a degraded start rung by their deadline")),
      DeadlineExpired(R.counter(
          "service.deadline-expired",
          "requests whose deadline had fully expired before execution")),
      LatencyMs(R.histogram(
          "service.latency-ms",
          "submit-to-completion wall clock of completed requests",
          HistogramShards)),
      QueueWaitMs(R.histogram(
          "service.queue-wait-ms",
          "time requests spent queued before a worker picked them up",
          HistogramShards)) {}

GenerationService::~GenerationService() { stop(); }

void GenerationService::pause() {
  std::lock_guard<std::mutex> Guard(QueueLock);
  Paused = true;
}

void GenerationService::resume() {
  {
    std::lock_guard<std::mutex> Guard(QueueLock);
    Paused = false;
  }
  QueueCv.notify_all();
}

void GenerationService::stop() {
  std::deque<std::shared_ptr<PendingRequest>> Orphans;
  {
    std::lock_guard<std::mutex> Guard(QueueLock);
    if (Stopping)
      return;
    Stopping = true;
    Orphans.swap(Queue);
  }
  QueueCv.notify_all();
  for (std::thread &Worker : Workers)
    Worker.join();
  Workers.clear();
  // Queued-but-never-executed requests fail typed, not silently: their
  // waiters unblock with ServiceStopped.
  for (const std::shared_ptr<PendingRequest> &Job : Orphans)
    fulfill(Job, Error(ErrorCode::ServiceStopped,
                       "service stopped before the request was executed"));
}

ErrorOr<std::shared_ptr<PendingRequest>>
GenerationService::submit(ServiceRequest Request) {
  Metrics.Submitted.add();
  const uint64_t RequestId = Telem.beginRequest();
  Telem.recordEvent(RequestId, RequestEventKind::Submitted, Request.Spec);

  double DeadlineMs = Request.DeadlineMs != 0.0 ? Request.DeadlineMs
                                                : Options.DefaultDeadlineMs;
  if (DeadlineMs < 0.0) {
    // Expired before any work could begin: the one deadline shape that is
    // an admission error rather than a degraded answer.
    Metrics.ShedExpired.add();
    Telem.recordEvent(RequestId, RequestEventKind::Shed, "expired-deadline");
    return Error(ErrorCode::DeadlineExceeded,
                 "request deadline expired before submission");
  }

  auto Job = std::make_shared<PendingRequest>();
  Job->Request = std::move(Request);
  Job->RequestId = RequestId;
  Job->SubmittedAt = Clock::now();
  if (DeadlineMs > 0.0) {
    Job->HasDeadline = true;
    Job->Deadline =
        Job->SubmittedAt +
        std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(DeadlineMs));
  }

  // Admission control. Outstanding is checked before the queue so the
  // coarser limit (total admitted work, including coalesced followers and
  // executing jobs) sheds first.
  if (Outstanding.load(std::memory_order_relaxed) >= Options.MaxOutstanding) {
    Metrics.ShedOverloaded.add();
    Telem.recordEvent(RequestId, RequestEventKind::Shed, "overloaded");
    return Error(ErrorCode::Overloaded,
                 "service outstanding-work limit reached (" +
                     std::to_string(Options.MaxOutstanding) +
                     " requests in flight); retry after backoff");
  }
  {
    std::lock_guard<std::mutex> Guard(QueueLock);
    if (Stopping) {
      // A caller bug rather than load, but still a shed: the conservation
      // law and the timeline law both hold after stop().
      Metrics.ShedStopped.add();
      Telem.recordEvent(RequestId, RequestEventKind::Shed, "service-stopped");
      return Error(ErrorCode::ServiceStopped,
                   "service is stopped; request rejected at submission");
    }
    if (Queue.size() >= Options.QueueCapacity) {
      Metrics.ShedQueueFull.add();
      Telem.recordEvent(RequestId, RequestEventKind::Shed, "queue-full");
      return Error(ErrorCode::QueueFull,
                   "service intake queue is full (" +
                       std::to_string(Options.QueueCapacity) +
                       " requests queued); retry after backoff");
    }
    Queue.push_back(Job);
    Outstanding.fetch_add(1, std::memory_order_relaxed);
  }
  QueueCv.notify_one();
  return Job;
}

ErrorOr<ServiceResult>
GenerationService::wait(const std::shared_ptr<PendingRequest> &Handle) {
  assert(Handle && "waiting on a null request handle");
  std::unique_lock<std::mutex> Guard(Handle->Lock);
  Handle->Cv.wait(Guard, [&] { return Handle->Outcome.has_value(); });
  return *Handle->Outcome;
}

ErrorOr<ServiceResult> GenerationService::process(ServiceRequest Request) {
  ErrorOr<std::shared_ptr<PendingRequest>> Handle = submit(std::move(Request));
  if (!Handle)
    return Handle.takeError();
  return wait(*Handle);
}

std::vector<ErrorOr<ServiceResult>>
GenerationService::processBatch(const std::vector<ServiceRequest> &Requests) {
  std::vector<ErrorOr<std::shared_ptr<PendingRequest>>> Handles;
  Handles.reserve(Requests.size());
  for (const ServiceRequest &Request : Requests)
    Handles.push_back(submit(Request));
  std::vector<ErrorOr<ServiceResult>> Results;
  Results.reserve(Requests.size());
  for (ErrorOr<std::shared_ptr<PendingRequest>> &Handle : Handles) {
    if (!Handle)
      Results.push_back(Handle.takeError());
    else
      Results.push_back(wait(*Handle));
  }
  return Results;
}

size_t GenerationService::repairCache() { return Repo.rebuildQuarantined(); }

void GenerationService::workerLoop() {
  while (true) {
    std::shared_ptr<PendingRequest> Job;
    {
      std::unique_lock<std::mutex> Guard(QueueLock);
      QueueCv.wait(Guard,
                   [&] { return Stopping || (!Paused && !Queue.empty()); });
      if (Stopping)
        return; // stop() fails whatever is still queued
      Job = std::move(Queue.front());
      Queue.pop_front();
    }
    execute(Job);
  }
}

void GenerationService::fulfill(const std::shared_ptr<PendingRequest> &Job,
                                ErrorOr<ServiceResult> Outcome) {
  double TotalMs = msBetween(Job->SubmittedAt, Clock::now());
  if (Outcome) {
    Outcome->RequestId = Job->RequestId;
    Outcome->TotalMs = TotalMs;
    Metrics.Completed.add();
    Metrics.LatencyMs.record(TotalMs);
    Telem.recordEvent(Job->RequestId, RequestEventKind::Completed,
                      core::fallbackLevelName(Outcome->Fallback));
  } else {
    Metrics.Failed.add();
    Telem.recordEvent(Job->RequestId, RequestEventKind::Failed,
                      errorCodeName(Outcome.error().code()));
  }
  Outstanding.fetch_sub(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> Guard(Job->Lock);
    Job->Outcome.emplace(std::move(Outcome));
  }
  Job->Cv.notify_all();
}

void GenerationService::execute(const std::shared_ptr<PendingRequest> &Job) {
  const ServiceRequest &Request = Job->Request;
  double QueueMs = msBetween(Job->SubmittedAt, Clock::now());
  Metrics.QueueWaitMs.record(QueueMs);
  Telem.recordEvent(Job->RequestId, RequestEventKind::Dequeued,
                    std::to_string(QueueMs));

  const std::string Signature = core::contractionSignature(
      Request.Spec, Request.Extents, Options.Generation.ElementSize);

  // Singleflight: if this signature is already generating, join its flight
  // and let the leader fulfill us. The table only holds entries while a
  // leader is executing, so warm cache hits pass straight through.
  {
    std::lock_guard<std::mutex> Guard(FlightsLock);
    auto [It, Inserted] = Flights.try_emplace(Signature);
    if (!Inserted) {
      It->second.Waiters.push_back(Job);
      Metrics.Coalesced.add();
      Telem.recordEvent(Job->RequestId, RequestEventKind::Coalesced,
                        Signature);
      return;
    }
  }

  support::traceInstant("service.execute", {{"signature", Signature}});

  ErrorOr<ServiceResult> Outcome =
      Error(ErrorCode::Unknown, "request never attempted");
  unsigned Attempt = 0;
  const double Inf = std::numeric_limits<double>::infinity();
  while (true) {
    ++Attempt;
    Telem.recordEvent(Job->RequestId, RequestEventKind::AttemptStart,
                      std::to_string(Attempt));
    double RemainingMs =
        Job->HasDeadline ? msBetween(Clock::now(), Job->Deadline) : Inf;

    ServiceResult Meta;
    Meta.Attempts = Attempt;
    Meta.QueueMs = QueueMs;

    CogentOptions Gen = Options.Generation;
    // Deadline budgeting: plenty of budget left -> grant the enumeration
    // phase its share and run the full pipeline; running low -> degrade
    // the start rung instead of risking a deadline miss; already expired
    // (e.g. spent queued) -> the TTGT rung still produces an answer.
    if (Job->HasDeadline) {
      if (RemainingMs <= 0.0) {
        Gen.StartRung = FallbackLevel::TtgtBaseline;
        Meta.DeadlineDegraded = true;
        Meta.DeadlineExpired = true;
        Metrics.DeadlineExpired.add();
      } else if (RemainingMs < Options.DegradeTtgtMs) {
        Gen.StartRung = FallbackLevel::TtgtBaseline;
        Meta.DeadlineDegraded = true;
      } else if (RemainingMs < Options.DegradeMinimalTileMs) {
        Gen.StartRung = FallbackLevel::MinimalTile;
        Meta.DeadlineDegraded = true;
      } else {
        double Share = RemainingMs * Options.EnumerateBudgetFraction;
        Gen.Budget.DeadlineMs = Gen.Budget.DeadlineMs > 0.0
                                    ? std::min(Gen.Budget.DeadlineMs, Share)
                                    : Share;
      }
      if (Meta.DeadlineDegraded) {
        Metrics.DeadlineDegraded.add();
        Telem.recordEvent(Job->RequestId, RequestEventKind::DeadlineBand,
                          core::fallbackLevelName(Gen.StartRung));
        support::traceInstant(
            "service.deadline-degrade",
            {{"signature", Signature},
             {"rung", core::fallbackLevelName(Gen.StartRung)}});
      }
    }

    // Circuit breaker: an open breaker forces the TTGT rung (cheap, never
    // feeds the expensive pipeline); after the cooldown the next request
    // becomes the half-open probe and runs the full pipeline.
    {
      std::string Transition;
      {
        std::lock_guard<std::mutex> Guard(BreakersLock);
        Breaker &B = Breakers[Signature];
        if (B.S == BreakerState::Open) {
          if (++B.OpenServed >= Options.BreakerCooldownRequests) {
            B.S = BreakerState::HalfOpen;
            B.OpenServed = 0;
            Transition = "open->half-open";
          } else {
            Gen.StartRung = FallbackLevel::TtgtBaseline;
            Meta.BreakerDegraded = true;
          }
        }
      }
      if (!Transition.empty())
        Telem.recordEvent(Job->RequestId,
                          RequestEventKind::BreakerTransition, Transition);
    }

    // Per-attempt chaos seed: deterministic in (base seed, signature,
    // attempt), different across attempts — injected faults behave like
    // transient infrastructure trouble a retry can out-wait.
    if (Gen.Chaos.enabled() && Options.ReseedChaosPerAttempt)
      Gen.Chaos.Seed =
          mix64(Gen.Chaos.Seed ^ mix64(fnv1a(Signature) + Attempt));

    // Arm this worker thread's injector for the whole attempt, so chaos
    // sites outside generate() — the cache's hit-path corruption check —
    // draw faults too. generate() nests its own activation (same options)
    // for the pipeline's interior sites; activation is thread-local, so
    // neighboring workers are unaffected.
    std::optional<support::FaultInjector> AttemptInjector;
    if (Gen.Chaos.enabled())
      AttemptInjector.emplace(Gen.Chaos);
    support::ScopedChaosActivation AttemptChaos(
        AttemptInjector ? &*AttemptInjector : nullptr);

    ErrorOr<ShardedKernelRepository::Lookup> Looked =
        Request.BypassCache
            ? Repo.generateFresh(Request.Spec, Request.Extents, &Gen)
            : Repo.lookupOrGenerate(Request.Spec, Request.Extents, &Gen);

    // Feed the breaker only with evidence about the *full* pipeline for
    // this signature: cache hits prove nothing and breaker-degraded runs
    // never entered it.
    bool FeedBreaker =
        !Meta.BreakerDegraded && !(Looked && Looked->CacheHit);
    bool Clean = Looked.hasValue() && Looked->VerifierRejections == 0 &&
                 Looked->LintRejections == 0;
    if (FeedBreaker) {
      std::string Transition;
      {
        std::lock_guard<std::mutex> Guard(BreakersLock);
        Breaker &B = Breakers[Signature];
        const BreakerState Before = B.S;
        if (Clean) {
          if (B.S == BreakerState::HalfOpen)
            Metrics.BreakerResets.add();
          B.S = BreakerState::Closed;
          B.ConsecutiveRejections = 0;
        } else {
          if (B.S == BreakerState::HalfOpen ||
              ++B.ConsecutiveRejections >= Options.BreakerThreshold) {
            if (B.S != BreakerState::Open) {
              Metrics.BreakerTrips.add();
              support::traceInstant("service.breaker-open",
                                    {{"signature", Signature}});
            }
            B.S = BreakerState::Open;
            B.OpenServed = 0;
            B.ConsecutiveRejections = 0;
          }
        }
        if (B.S != Before)
          Transition = std::string(breakerStateName(Before)) + "->" +
                       breakerStateName(B.S);
      }
      if (!Transition.empty())
        Telem.recordEvent(Job->RequestId,
                          RequestEventKind::BreakerTransition, Transition);
    }

    if (Looked) {
      if (Looked->CacheHit)
        Telem.recordEvent(Job->RequestId, RequestEventKind::CacheHit,
                          Signature);
      if (Looked->Quarantined)
        Telem.recordEvent(Job->RequestId, RequestEventKind::CacheQuarantine,
                          Signature);
      Meta.Kernel = std::move(Looked->Kernel);
      Meta.Fallback = Looked->Fallback;
      Meta.CacheHit = Looked->CacheHit;
      Meta.Quarantined = Looked->Quarantined;
      Outcome = std::move(Meta);
      break;
    }

    Error Failure = Looked.takeError();
    Telem.recordEvent(Job->RequestId, RequestEventKind::AttemptFailed,
                      errorCodeName(Failure.code()));
    double RemainingAfter =
        Job->HasDeadline ? msBetween(Clock::now(), Job->Deadline) : Inf;
    bool Retryable = isTransient(Failure.code()) &&
                     Attempt <= Options.MaxRetries && RemainingAfter > 0.0;
    if (!Retryable) {
      Outcome = std::move(Failure).withContext(
          "service request '" + Signature + "' failed after " +
          std::to_string(Attempt) +
          (Attempt == 1 ? " attempt" : " attempts"));
      break;
    }
    Metrics.Retries.add();
    double BackoffMs =
        std::min(Options.RetryBackoffBaseMs *
                     std::pow(2.0, static_cast<double>(Attempt - 1)),
                 Options.RetryBackoffMaxMs);
    BackoffMs = std::min(BackoffMs, RemainingAfter);
    support::traceInstant("service.retry",
                          {{"signature", Signature},
                           {"code", errorCodeName(Failure.code())}});
    Telem.recordEvent(Job->RequestId, RequestEventKind::Backoff,
                      std::to_string(BackoffMs));
    if (BackoffMs > 0.0)
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(BackoffMs));
  }

  // Fulfill the leader, then everyone who coalesced onto this flight.
  // Taking the flight out of the table and fulfilling are not atomic;
  // a request arriving in between simply starts a new flight.
  std::vector<std::shared_ptr<PendingRequest>> Waiters;
  {
    std::lock_guard<std::mutex> Guard(FlightsLock);
    auto It = Flights.find(Signature);
    assert(It != Flights.end() && "leader's flight vanished");
    Waiters = std::move(It->second.Waiters);
    Flights.erase(It);
  }
  for (const std::shared_ptr<PendingRequest> &Waiter : Waiters) {
    ErrorOr<ServiceResult> Shared = Outcome;
    if (Shared) {
      Shared->Coalesced = true;
      Shared->QueueMs = msBetween(Waiter->SubmittedAt, Clock::now());
    }
    fulfill(Waiter, std::move(Shared));
  }
  fulfill(Job, std::move(Outcome));
}

ServiceStats GenerationService::stats() const {
  ServiceStats Out;
  Out.Submitted = Metrics.Submitted.value();
  Out.Completed = Metrics.Completed.value();
  Out.Failed = Metrics.Failed.value();
  Out.ShedQueueFull = Metrics.ShedQueueFull.value();
  Out.ShedOverloaded = Metrics.ShedOverloaded.value();
  Out.ShedExpired = Metrics.ShedExpired.value();
  Out.ShedStopped = Metrics.ShedStopped.value();
  Out.Retries = Metrics.Retries.value();
  Out.Coalesced = Metrics.Coalesced.value();
  Out.CacheHits = Repo.hits();
  Out.CacheMisses = Repo.misses();
  Out.Quarantined = Repo.quarantined();
  Out.BreakerTrips = Metrics.BreakerTrips.value();
  Out.BreakerResets = Metrics.BreakerResets.value();
  Out.DeadlineDegraded = Metrics.DeadlineDegraded.value();
  Out.DeadlineExpired = Metrics.DeadlineExpired.value();
  return Out;
}

void GenerationService::syncRegistry() const {
  support::MetricRegistry &R = Telem.registry();
  R.gauge("service.outstanding", "requests admitted but not yet fulfilled")
      .set(static_cast<double>(Outstanding.load(std::memory_order_relaxed)));
  {
    std::lock_guard<std::mutex> Guard(QueueLock);
    R.gauge("service.queue-depth", "requests waiting in the intake queue")
        .set(static_cast<double>(Queue.size()));
  }
  Repo.mirrorMetrics(R);
  support::bridgeProcessCounters(R);
}

std::string GenerationService::telemetrySnapshot() const {
  syncRegistry();
  return Telem.registry().renderJson();
}

std::string GenerationService::telemetryPrometheus() const {
  syncRegistry();
  return Telem.registry().renderPrometheus();
}

double GenerationService::percentileMs(std::vector<double> SamplesMs,
                                       double P) {
  if (SamplesMs.empty())
    return 0.0;
  std::sort(SamplesMs.begin(), SamplesMs.end());
  double Rank = (P / 100.0) * static_cast<double>(SamplesMs.size() - 1);
  size_t Lo = static_cast<size_t>(Rank);
  size_t Hi = std::min(Lo + 1, SamplesMs.size() - 1);
  double Frac = Rank - static_cast<double>(Lo);
  return SamplesMs[Lo] * (1.0 - Frac) + SamplesMs[Hi] * Frac;
}

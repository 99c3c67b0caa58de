//===- tests/test_telemetry.cpp - Metrics, timelines and exporters ---------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The telemetry subsystem's contract, in four bundles:
///
///  - Histogram math: quantile estimates stay inside the documented
///    relative error bound against exact sorted percentiles on randomized
///    samples; bucket boundaries land deterministically; per-thread shard
///    merges equal one histogram fed all samples.
///  - Timeline completeness: every request the service sees — plain runs
///    and chaos storms over all injection sites — yields a timeline of
///    "service.<kind>" trace instants that starts with 'submitted' and
///    ends with exactly one terminal event matching the typed outcome;
///    request ids are unique; nothing is orphaned.
///  - The export: the JSON snapshot carries a pinned, name-sorted key set
///    per section and the service's values (cross-checked after a
///    parse), enough to check the conservation law from it alone.
///  - The perf-regression gate: bench_compare accepts each checked-in
///    perfbench result (BENCH_<workload>.json) and rejects copies degraded
///    past a BENCHMARK.json bound, from another run, or incorrect.
///
//===----------------------------------------------------------------------===//

#include "service/GenerationService.h"
#include "service/Telemetry.h"
#include "support/FaultInjection.h"
#include "support/JsonValue.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cogent;
using service::GenerationService;
using service::RequestEventKind;
using service::ServiceOptions;
using service::ServiceRequest;
using service::ServiceResult;
using service::ServiceStats;
using support::ConcurrentHistogram;
using support::JsonValue;
using support::LatencyHistogram;

namespace {

/// Deterministic xorshift; no global RNG so runs reproduce exactly.
uint64_t nextRand(uint64_t &State) {
  State ^= State << 13;
  State ^= State >> 7;
  State ^= State << 17;
  return State;
}

/// Uniform double in [0, 1).
double nextUnit(uint64_t &State) {
  return static_cast<double>(nextRand(State) >> 11) * 0x1p-53;
}

/// The exact order statistic quantileMs estimates: rank ceil(P/100 * N),
/// 1-based, clamped.
double exactQuantile(std::vector<double> Samples, double P) {
  if (Samples.empty())
    return 0.0;
  std::sort(Samples.begin(), Samples.end());
  double N = static_cast<double>(Samples.size());
  size_t Rank = static_cast<size_t>(std::ceil(P / 100.0 * N));
  Rank = std::min(std::max<size_t>(Rank, 1), Samples.size());
  return Samples[Rank - 1];
}

//===----------------------------------------------------------------------===//
// Histogram math
//===----------------------------------------------------------------------===//

TEST(LatencyHistogram, EmptyAndSingleSample) {
  LatencyHistogram H;
  EXPECT_EQ(H.count(), 0u);
  EXPECT_EQ(H.quantileMs(50.0), 0.0);
  EXPECT_EQ(H.minMs(), 0.0);
  EXPECT_EQ(H.maxMs(), 0.0);
  EXPECT_EQ(H.meanMs(), 0.0);

  H.record(3.5);
  EXPECT_EQ(H.count(), 1u);
  // One sample: min == max == the sample, and the clamp forces every
  // quantile to the exact value regardless of bucket width.
  EXPECT_EQ(H.minMs(), 3.5);
  EXPECT_EQ(H.maxMs(), 3.5);
  for (double P : {0.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(H.quantileMs(P), 3.5) << "P=" << P;
}

TEST(LatencyHistogram, BucketBoundariesAreDeterministic) {
  // A value exactly on a bucket's lower edge belongs to that bucket, and
  // every edge is consistent: lower(i) == upper(i-1).
  for (unsigned I = 1; I + 1 < LatencyHistogram::NumBuckets; ++I) {
    double Lower = LatencyHistogram::bucketLowerMs(I);
    EXPECT_EQ(LatencyHistogram::bucketIndex(Lower), I) << "bucket " << I;
    EXPECT_DOUBLE_EQ(LatencyHistogram::bucketUpperMs(I - 1), Lower);
  }
  // Underflow: zero, negatives and sub-minimum values land in bucket 0.
  EXPECT_EQ(LatencyHistogram::bucketIndex(0.0), 0u);
  EXPECT_EQ(LatencyHistogram::bucketIndex(-1.0), 0u);
  EXPECT_EQ(
      LatencyHistogram::bucketIndex(LatencyHistogram::MinTrackableMs / 2.0),
      0u);
  // The first regular bucket starts exactly at MinTrackableMs.
  EXPECT_EQ(LatencyHistogram::bucketIndex(LatencyHistogram::MinTrackableMs),
            1u);
  // Overflow: at and beyond maxTrackableMs.
  EXPECT_EQ(LatencyHistogram::bucketIndex(LatencyHistogram::maxTrackableMs()),
            LatencyHistogram::NumBuckets - 1);
  EXPECT_EQ(LatencyHistogram::bucketIndex(1e18),
            LatencyHistogram::NumBuckets - 1);
}

TEST(LatencyHistogram, QuantilesWithinDocumentedBoundOnRandomSamples) {
  const double Bound = LatencyHistogram::quantileErrorBound();
  // A little float headroom on top of the documented bound; the bound
  // itself is the math of geometric-mean representatives, not of fp
  // rounding.
  const double Slack = 1e-9;
  uint64_t Rng = 0x2545F4914F6CDD1Dull;
  for (int Trial = 0; Trial < 5; ++Trial) {
    LatencyHistogram H;
    std::vector<double> Samples;
    // Log-uniform over ~7 decades — exercises many octaves at once.
    for (int I = 0; I < 4000; ++I) {
      double Ms = std::pow(10.0, nextUnit(Rng) * 7.0 - 2.0);
      Samples.push_back(Ms);
      H.record(Ms);
    }
    EXPECT_EQ(H.count(), Samples.size());
    for (double P : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
      double Exact = exactQuantile(Samples, P);
      double Estimate = H.quantileMs(P);
      EXPECT_LE(std::abs(Estimate - Exact) / Exact, Bound + Slack)
          << "trial " << Trial << " P" << P << ": estimate " << Estimate
          << " vs exact " << Exact;
    }
  }
}

TEST(LatencyHistogram, MergeEqualsSingleHistogram) {
  uint64_t Rng = 7;
  LatencyHistogram Whole, PartA, PartB;
  for (int I = 0; I < 2000; ++I) {
    double Ms = nextUnit(Rng) * 100.0;
    Whole.record(Ms);
    (I % 2 ? PartA : PartB).record(Ms);
  }
  PartA.merge(PartB);
  EXPECT_EQ(PartA.count(), Whole.count());
  // Bucket counts are integers and merge exactly; the running sum is a
  // double accumulated in a different order, so only near-equality holds.
  EXPECT_NEAR(PartA.sumMs(), Whole.sumMs(), 1e-9 * Whole.sumMs());
  EXPECT_EQ(PartA.minMs(), Whole.minMs());
  EXPECT_EQ(PartA.maxMs(), Whole.maxMs());
  for (unsigned I = 0; I < LatencyHistogram::NumBuckets; ++I)
    EXPECT_EQ(PartA.bucketCount(I), Whole.bucketCount(I)) << "bucket " << I;
  for (double P : {50.0, 90.0, 99.0})
    EXPECT_DOUBLE_EQ(PartA.quantileMs(P), Whole.quantileMs(P));
}

TEST(ConcurrentHistogram, CrossThreadShardMergeIsDeterministic) {
  ConcurrentHistogram Concurrent(4);
  LatencyHistogram Reference;
  // Every thread records a deterministic per-thread sequence; the
  // reference gets all of them. Bucket-wise merge is exact, so the merged
  // view must equal the reference no matter how threads were sharded.
  const unsigned NumThreads = 8;
  const int PerThread = 500;
  std::vector<std::vector<double>> PerThreadSamples(NumThreads);
  for (unsigned T = 0; T < NumThreads; ++T) {
    uint64_t Rng = 0x9e3779b97f4a7c15ull + T;
    for (int I = 0; I < PerThread; ++I)
      PerThreadSamples[T].push_back(nextUnit(Rng) * 50.0 + 0.001);
  }
  for (const std::vector<double> &Samples : PerThreadSamples)
    for (double Ms : Samples)
      Reference.record(Ms);

  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (double Ms : PerThreadSamples[T])
        Concurrent.record(Ms);
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  LatencyHistogram Merged = Concurrent.merged();
  EXPECT_EQ(Merged.count(), Reference.count());
  EXPECT_EQ(Merged.minMs(), Reference.minMs());
  EXPECT_EQ(Merged.maxMs(), Reference.maxMs());
  for (unsigned I = 0; I < LatencyHistogram::NumBuckets; ++I)
    EXPECT_EQ(Merged.bucketCount(I), Reference.bucketCount(I))
        << "bucket " << I;
  // Shards partition the samples: their counts add up to the whole.
  uint64_t ShardTotal = 0;
  for (size_t S = 0; S < Concurrent.numShards(); ++S)
    ShardTotal += Concurrent.shardSnapshot(S).count();
  EXPECT_EQ(ShardTotal, Reference.count());
  // Determinism: asking twice gives the identical distribution.
  LatencyHistogram Again = Concurrent.merged();
  for (double P : {50.0, 90.0, 99.0, 99.9})
    EXPECT_DOUBLE_EQ(Again.quantileMs(P), Merged.quantileMs(P));
}

//===----------------------------------------------------------------------===//
// Request timelines
//===----------------------------------------------------------------------===//

/// One lifecycle event as read back from the trace.
struct TimelineEvent {
  RequestEventKind Kind;
  double AtUs;
};

/// Groups \p Session's "service.*" instants that carry a "request" arg by
/// request id, in record order.
std::map<uint64_t, std::vector<TimelineEvent>>
timelines(const support::TraceSession &Session) {
  const std::string Prefix = "service.";
  std::map<uint64_t, std::vector<TimelineEvent>> ById;
  for (const support::TraceEvent &Event : Session.events()) {
    std::string Name = Event.Name;
    if (Event.Phase != 'i' || Name.rfind(Prefix, 0) != 0)
      continue;
    auto Request = std::find_if(
        Event.Args.begin(), Event.Args.end(),
        [](const auto &Arg) { return Arg.first == "request"; });
    if (Request == Event.Args.end())
      continue;
    std::optional<RequestEventKind> Kind =
        service::requestEventKindFromName(Name.substr(Prefix.size()));
    EXPECT_TRUE(Kind.has_value()) << Name;
    if (Kind)
      ById[std::stoull(Request->second)].push_back(
          {*Kind, Event.TimestampUs});
  }
  return ById;
}

/// The timeline law: first event 'submitted', exactly one terminal event,
/// and it is the last. \p ExpectTerminal, when set, pins its kind.
void checkTimeline(const std::vector<TimelineEvent> &Timeline,
                   std::optional<RequestEventKind> ExpectTerminal,
                   uint64_t Id) {
  ASSERT_FALSE(Timeline.empty()) << "request " << Id << " has no events";
  EXPECT_EQ(Timeline.front().Kind, RequestEventKind::Submitted)
      << "request " << Id;
  size_t Terminals = 0;
  for (const TimelineEvent &Event : Timeline)
    Terminals += service::isTerminalEvent(Event.Kind) ? 1 : 0;
  EXPECT_EQ(Terminals, 1u) << "request " << Id;
  EXPECT_TRUE(service::isTerminalEvent(Timeline.back().Kind))
      << "request " << Id << " ends with "
      << service::requestEventKindName(Timeline.back().Kind);
  if (ExpectTerminal) {
    EXPECT_EQ(Timeline.back().Kind, *ExpectTerminal) << "request " << Id;
  }
  // Timestamps never run backwards within one timeline.
  for (size_t I = 1; I < Timeline.size(); ++I)
    EXPECT_GE(Timeline[I].AtUs, Timeline[I - 1].AtUs) << "request " << Id;
}

TEST(ServiceTimelines, PlainRunProducesCompleteTimelines) {
  support::TraceSession Session;
  support::ScopedTraceActivation Active(&Session);
  ServiceOptions Options;
  Options.NumWorkers = 4;
  GenerationService Service(gpu::makeV100(), Options);

  std::vector<ServiceRequest> Requests;
  for (const char *Spec : {"ab-ac-cb", "abc-abd-dc", "ij-ik-kj"})
    for (int Repeat = 0; Repeat < 3; ++Repeat) {
      ServiceRequest Request;
      Request.Spec = Spec;
      for (char C = 'a'; C <= 'z'; ++C)
        if (std::string(Spec).find(C) != std::string::npos)
          Request.Extents.emplace_back(C, 12);
      Requests.push_back(std::move(Request));
    }
  std::vector<ErrorOr<ServiceResult>> Results =
      Service.processBatch(Requests);

  std::set<uint64_t> SeenIds;
  for (const ErrorOr<ServiceResult> &Result : Results) {
    ASSERT_TRUE(Result.hasValue()) << Result.errorMessage();
    EXPECT_NE(Result->RequestId, 0u);
    EXPECT_TRUE(SeenIds.insert(Result->RequestId).second)
        << "duplicate request id " << Result->RequestId;
  }

  auto ById = timelines(Session);
  EXPECT_EQ(ById.size(), Requests.size());
  uint64_t Events = 0;
  for (const auto &[Id, Timeline] : ById) {
    checkTimeline(Timeline, RequestEventKind::Completed, Id);
    Events += Timeline.size();
  }
  // The events-recorded counter counts exactly the instants in the trace.
  EXPECT_EQ(Service.eventsRecorded(), Events);
  // Completed results carry the id their timeline is filed under.
  for (const ErrorOr<ServiceResult> &Result : Results)
    EXPECT_EQ(ById.count(Result->RequestId), 1u);
}

TEST(ServiceTimelines, ShedRequestsGetTerminalShedEvents) {
  support::TraceSession Session;
  support::ScopedTraceActivation Active(&Session);
  ServiceOptions Options;
  Options.NumWorkers = 1; // parked: requests stay queued until stop()
  Options.QueueCapacity = 2;
  Options.MaxOutstanding = 2;
  Options.StartPaused = true;
  GenerationService Service(gpu::makeV100(), Options);

  ServiceRequest Request;
  Request.Spec = "ab-ac-cb";
  Request.Extents = {{'a', 8}, {'b', 8}, {'c', 8}};

  auto First = Service.submit(Request);
  auto Second = Service.submit(Request);
  ASSERT_TRUE(First.hasValue());
  ASSERT_TRUE(Second.hasValue());
  auto Third = Service.submit(Request); // over MaxOutstanding -> shed
  EXPECT_FALSE(Third.hasValue());

  ServiceRequest Expired = Request;
  Expired.DeadlineMs = -1.0; // pre-expired -> shed at submit
  EXPECT_FALSE(Service.process(Expired).hasValue());

  Service.stop(); // queued requests fail typed (ServiceStopped)

  auto ById = timelines(Session);
  ASSERT_EQ(ById.size(), 4u);
  std::multiset<RequestEventKind> Terminals;
  for (const auto &[Id, Timeline] : ById) {
    checkTimeline(Timeline, std::nullopt, Id);
    Terminals.insert(Timeline.back().Kind);
  }
  EXPECT_EQ(Terminals.count(RequestEventKind::Shed), 2u);
  EXPECT_EQ(Terminals.count(RequestEventKind::Failed), 2u);
}

TEST(ServiceTimelines, SnapshotReflectsServiceState) {
  ServiceOptions Options;
  Options.NumWorkers = 2;
  GenerationService Service(gpu::makeV100(), Options);
  ServiceRequest Request;
  Request.Spec = "ab-ac-cb";
  Request.Extents = {{'a', 16}, {'b', 16}, {'c', 16}};
  for (int I = 0; I < 4; ++I)
    ASSERT_TRUE(Service.process(Request).hasValue());

  std::string Json = Service.telemetrySnapshot();
  std::string Err;
  ASSERT_TRUE(support::validateJson(Json, &Err)) << Err;
  ErrorOr<JsonValue> Parsed = support::parseJson(Json);
  ASSERT_TRUE(Parsed.hasValue());
  const JsonValue *Counters = Parsed->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->findNumber("service.submitted"), 4.0);
  EXPECT_EQ(Counters->findNumber("service.completed"), 4.0);
  EXPECT_EQ(Counters->findNumber("cache.hits"), 3.0);
  const JsonValue *Hists = Parsed->find("histograms");
  ASSERT_NE(Hists, nullptr);
  const JsonValue *Latency = Hists->find("service.latency-ms");
  ASSERT_NE(Latency, nullptr);
  EXPECT_EQ(Latency->findNumber("count"), 4.0);
}

TEST(ServiceTimelines, SnapshotPinsItsKeySetPerSection) {
  ServiceOptions Options;
  Options.NumWorkers = 1;
  GenerationService Service(gpu::makeV100(), Options);
  ServiceRequest Request;
  Request.Spec = "ab-ac-cb";
  Request.Extents = {{'a', 8}, {'b', 8}, {'c', 8}};
  ASSERT_TRUE(Service.process(Request).hasValue());

  ErrorOr<JsonValue> Parsed = support::parseJson(Service.telemetrySnapshot());
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.errorMessage();
  auto keys = [](const JsonValue &Object) {
    std::vector<std::string> Names;
    for (const auto &[Name, Value] : Object.asObject())
      Names.push_back(Name);
    return Names;
  };
  EXPECT_EQ(keys(*Parsed), (std::vector<std::string>{
                               "counters", "gauges", "histograms"}));
  // The whole export, in name-sorted order within each section.
  const std::map<std::string, std::vector<std::string>> Expected = {
      {"counters",
       {"cache.hits", "cache.misses", "cache.quarantined",
        "service.breaker-resets", "service.breaker-trips",
        "service.coalesced", "service.completed",
        "service.deadline-degraded", "service.deadline-expired",
        "service.failed", "service.retries", "service.shed-expired",
        "service.shed-overloaded", "service.shed-queue-full",
        "service.shed-stopped", "service.submitted",
        "telemetry.events-recorded"}},
      {"gauges", {"cache.size", "service.outstanding", "service.queue-depth"}},
      {"histograms", {"service.latency-ms", "service.queue-wait-ms"}},
  };
  for (const auto &[Section, Names] : Expected) {
    const JsonValue *Metrics = Parsed->find(Section);
    ASSERT_NE(Metrics, nullptr) << Section;
    EXPECT_EQ(keys(*Metrics), Names) << Section;
    EXPECT_TRUE(std::is_sorted(Names.begin(), Names.end())) << Section;
  }
  const std::vector<std::string> HistogramFields = {
      "count",  "sum_ms", "min_ms", "max_ms", "mean_ms",
      "p50_ms", "p90_ms", "p99_ms", "p999_ms"};
  for (const auto &[Name, Histogram] : Parsed->find("histograms")->asObject())
    EXPECT_EQ(keys(Histogram), HistogramFields) << Name;
  // One request: submitted, dequeued, attempt-start, completed.
  const JsonValue *Counters = Parsed->find("counters");
  EXPECT_EQ(Counters->findNumber("telemetry.events-recorded"), 4.0);
  EXPECT_EQ(Counters->findNumber("cache.misses"), 1.0);
  const JsonValue *Gauges = Parsed->find("gauges");
  EXPECT_EQ(Gauges->findNumber("cache.size"), 1.0);
  EXPECT_EQ(Gauges->findNumber("service.outstanding"), 0.0);
  EXPECT_EQ(Gauges->findNumber("service.queue-depth"), 0.0);
}

TEST(ServiceTimelines, SnapshotAloneCarriesEveryServiceInvariant) {
  // One service that completes, coalesces (or serves from the cache),
  // sheds on a full queue and receives a post-stop submit. Everything
  // below reads only the exported snapshot.
  ServiceOptions Options;
  Options.StartPaused = true;
  Options.NumWorkers = 2;
  Options.QueueCapacity = 3;
  GenerationService Service(gpu::makeV100(), Options);
  ServiceRequest Request;
  Request.Spec = "abcdef-gdab-efgc"; // slow enough for followers to coalesce
  for (char C = 'a'; C <= 'g'; ++C)
    Request.Extents.emplace_back(C, 16);

  std::vector<std::shared_ptr<service::PendingRequest>> Handles;
  for (int I = 0; I < 3; ++I) {
    auto Handle = Service.submit(Request);
    ASSERT_TRUE(Handle.hasValue()) << Handle.errorMessage();
    Handles.push_back(*Handle);
  }
  auto Full = Service.submit(Request);
  ASSERT_FALSE(Full.hasValue());
  EXPECT_EQ(Full.errorCode(), ErrorCode::QueueFull);
  Service.resume();
  for (const auto &Handle : Handles)
    ASSERT_TRUE(Service.wait(Handle).hasValue());
  Service.stop();
  auto Late = Service.submit(Request);
  ASSERT_FALSE(Late.hasValue());
  EXPECT_EQ(Late.errorCode(), ErrorCode::ServiceStopped);

  ErrorOr<JsonValue> Parsed = support::parseJson(Service.telemetrySnapshot());
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.errorMessage();
  const JsonValue *Counters = Parsed->find("counters");
  ASSERT_NE(Counters, nullptr);
  auto count = [&](const char *Name) {
    std::optional<double> V = Counters->findNumber(Name);
    EXPECT_TRUE(V.has_value()) << Name << " missing from the snapshot";
    return V.value_or(-1.0);
  };
  EXPECT_EQ(count("service.submitted"), 5.0);
  EXPECT_EQ(count("service.completed"), 3.0);
  EXPECT_EQ(count("service.shed-queue-full"), 1.0);
  EXPECT_EQ(count("service.shed-stopped"), 1.0);
  EXPECT_EQ(count("service.coalesced") + count("cache.hits"), 2.0);
  EXPECT_EQ(count("service.submitted"),
            count("service.completed") + count("service.failed") +
                count("service.shed-queue-full") +
                count("service.shed-overloaded") +
                count("service.shed-expired") +
                count("service.shed-stopped"));

  // One name, one kind: no name sits in two sections, and nothing is
  // exported under a process-wide "process." name.
  std::multiset<std::string> Names;
  for (const char *Section : {"counters", "gauges", "histograms"}) {
    const JsonValue *Metrics = Parsed->find(Section);
    ASSERT_NE(Metrics, nullptr) << Section;
    for (const auto &[Name, Value] : Metrics->asObject()) {
      Names.insert(Name);
      EXPECT_NE(Name.rfind("process.", 0), 0u) << Name;
    }
  }
  for (const std::string &Name : Names)
    EXPECT_EQ(Names.count(Name), 1u) << Name;
}


#ifdef COGENT_CHAOS_ENABLED
TEST(ServiceTimelines, ChaosStormKeepsEveryTimelineComplete) {
  for (uint64_t Seed : {1ull, 7ull, 23ull}) {
    support::TraceSession Session;
    support::ScopedTraceActivation Active(&Session);
    ServiceOptions Options;
    Options.NumWorkers = 4;
    Options.MaxRetries = 2;
    Options.RetryBackoffBaseMs = 0.05;
    Options.RetryBackoffMaxMs = 0.5;
    Options.Generation.Chaos.Seed = Seed;
    Options.Generation.Chaos.Sites = support::AllChaosSites; // all 8 sites
    Options.Generation.Chaos.FireProbability = 0.25;
    GenerationService Service(gpu::makeV100(), Options);

    const std::vector<const char *> Specs = {"ab-ac-cb", "abc-abd-dc",
                                             "ij-ik-kj"};
    std::atomic<uint64_t> Completed{0}, Failed{0};
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < 4; ++C)
      Clients.emplace_back([&, C] {
        for (unsigned R = 0; R < 8; ++R) {
          ServiceRequest Request;
          Request.Spec = Specs[(C + R) % Specs.size()];
          for (char Ch = 'a'; Ch <= 'z'; ++Ch)
            if (std::string(Request.Spec).find(Ch) != std::string::npos)
              Request.Extents.emplace_back(Ch, 12);
          if (R % 3 == 2)
            Request.DeadlineMs = 4.0; // force deadline banding mid-storm
          ErrorOr<ServiceResult> Result = Service.process(Request);
          if (Result) {
            EXPECT_NE(Result->RequestId, 0u);
            Completed.fetch_add(1, std::memory_order_relaxed);
          } else {
            Failed.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    for (std::thread &Client : Clients)
      Client.join();

    ServiceStats Stats = Service.stats();
    auto ById = timelines(Session);
    // No orphaned or duplicate ids: one timeline per submitted request
    // (ids are unique by construction; the map collapses duplicates, so
    // equality means both laws hold), each with exactly one terminal
    // event.
    EXPECT_EQ(ById.size(), Stats.Submitted) << "seed " << Seed;
    uint64_t Completions = 0, Failures = 0, Sheds = 0;
    for (const auto &[Id, Timeline] : ById) {
      checkTimeline(Timeline, std::nullopt, Id);
      switch (Timeline.back().Kind) {
      case RequestEventKind::Completed: ++Completions; break;
      case RequestEventKind::Failed: ++Failures; break;
      default: ++Sheds; break;
      }
    }
    // Terminal events match the typed outcomes the clients observed and
    // the stats conservation law.
    EXPECT_EQ(Completions, Stats.Completed) << "seed " << Seed;
    EXPECT_EQ(Completions, Completed.load()) << "seed " << Seed;
    EXPECT_EQ(Failures, Stats.Failed) << "seed " << Seed;
    EXPECT_EQ(Sheds, Stats.ShedQueueFull + Stats.ShedOverloaded +
                         Stats.ShedExpired)
        << "seed " << Seed;
    EXPECT_EQ(Completed.load() + Failed.load(), 32u) << "seed " << Seed;
  }
}
#endif // COGENT_CHAOS_ENABLED

//===----------------------------------------------------------------------===//
// The bench_compare perf gate
//===----------------------------------------------------------------------===//

#if defined(BENCH_COMPARE_PATH) && defined(BENCH_RESULTS_DIR) &&             \
    defined(BENCHMARK_JSON)
const char *const Workloads[] = {"suite_top1", "shortlist_top8",
                                 "service_mixed"};
const std::string Benchmark = std::string("--benchmark ") + BENCHMARK_JSON;

/// The checked-in result of \p Workload: BENCH_<workload>.json.
std::string resultPath(const std::string &Workload) {
  return std::string(BENCH_RESULTS_DIR) + "/BENCH_" + Workload + ".json";
}

int runBenchCompare(const std::string &Args) {
  std::string Command = std::string(BENCH_COMPARE_PATH) + " " + Args +
                        " > /dev/null 2>&1";
  int Status = std::system(Command.c_str());
  return Status < 0 ? Status : WEXITSTATUS(Status);
}

std::string readText(const std::string &Path) {
  std::ifstream In(Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  return Buffer.str();
}

double metricValue(const std::string &Text, const std::string &Metric) {
  ErrorOr<JsonValue> Parsed = support::parseJson(Text);
  if (!Parsed)
    return 0.0;
  const JsonValue *Result = Parsed->find("result");
  const JsonValue *Metrics = Result ? Result->find("metrics") : nullptr;
  const JsonValue *M = Metrics ? Metrics->find(Metric) : nullptr;
  return M ? M->findNumber("value").value_or(0.0) : 0.0;
}

/// Writes a copy of \p Text whose JSON scalar right after the first
/// \p Anchor is \p Value, and returns its path ("" when \p Anchor is
/// absent).
std::string writeEdited(std::string Text, const std::string &Anchor,
                        const std::string &Value) {
  size_t Start = Text.find(Anchor);
  if (Start == std::string::npos)
    return "";
  Start += Anchor.size();
  size_t End = Text.find_first_of(",}", Start);
  Text.replace(Start, End - Start, Value);
  std::string Path = ::testing::TempDir() + "bench_compare_edited.json";
  std::ofstream(Path) << Text;
  return Path;
}

std::string metricAnchor(const std::string &Metric) {
  return "\"" + Metric + "\": {\"value\": ";
}

std::string scaled(double Value, double Factor) {
  char Formatted[64];
  std::snprintf(Formatted, sizeof(Formatted), "%.17g", Value * Factor);
  return Formatted;
}

TEST(BenchCompareGate, AcceptsEveryCheckedInResult) {
  for (const char *Name : Workloads) {
    std::string Path = resultPath(Name);
    EXPECT_EQ(runBenchCompare(Benchmark + " --schema " + Path), 0) << Name;
    EXPECT_EQ(runBenchCompare(Benchmark + " --fresh " + Path +
                              " --baseline " + Path),
              0)
        << Name;
  }
}

TEST(BenchCompareGate, RejectsMetricsWorseThanTheirBound) {
  for (const char *Name : Workloads) {
    std::string Baseline = resultPath(Name);
    std::string Text = readText(Baseline);
    auto compareEdited = [&](const std::string &Metric, double Factor) {
      std::string Path = writeEdited(
          Text, metricAnchor(Metric),
          scaled(metricValue(Text, Metric), Factor));
      EXPECT_FALSE(Path.empty()) << Name << ": no " << Metric;
      int Status = runBenchCompare(Benchmark + " --fresh " + Path +
                                   " --baseline " + Baseline);
      std::remove(Path.c_str());
      return Status;
    };
    // throughput_per_s is bounded at 24%, kernel_gflops_geomean at 1%.
    EXPECT_EQ(compareEdited("throughput_per_s", 0.5), 1) << Name;
    EXPECT_EQ(compareEdited("kernel_gflops_geomean", 0.98), 1) << Name;
    EXPECT_EQ(compareEdited("kernel_gflops_geomean", 0.995), 0) << Name;
    EXPECT_EQ(compareEdited("latency_p99_ms", 1.2), 0) << Name;
    EXPECT_EQ(compareEdited("latency_p99_ms", 1.3), 1) << Name;
  }
}

TEST(BenchCompareGate, RejectsOtherRunsAndIncorrectResults) {
  std::string Baseline = resultPath(Workloads[0]);
  std::string Text = readText(Baseline);
  // Another workload or build type: still schema-valid, never comparable.
  for (const auto &[Anchor, Value] :
       std::vector<std::pair<std::string, std::string>>{
           {"\"workload\": ", "\"shortlist_top8\""},
           {"\"build_type\": ", "\"Debug\""}}) {
    std::string Path = writeEdited(Text, Anchor, Value);
    ASSERT_FALSE(Path.empty()) << Anchor;
    EXPECT_EQ(runBenchCompare(Benchmark + " --schema " + Path), 0) << Anchor;
    EXPECT_EQ(runBenchCompare(Benchmark + " --fresh " + Path +
                              " --baseline " + Baseline),
              1)
        << Anchor;
    std::remove(Path.c_str());
  }
  std::string Incorrect = writeEdited(Text, "\"correct\": ", "false");
  ASSERT_FALSE(Incorrect.empty());
  EXPECT_EQ(runBenchCompare(Benchmark + " --schema " + Incorrect), 1);
  std::remove(Incorrect.c_str());
}

TEST(BenchCompareGate, UsageErrorsAndMissingFiles) {
  std::string Result = resultPath(Workloads[0]);
  EXPECT_EQ(runBenchCompare(""), 2);
  EXPECT_EQ(runBenchCompare("--schema " + Result), 2); // no --benchmark
  EXPECT_EQ(runBenchCompare(Benchmark + " --fresh " + Result), 2);
  EXPECT_EQ(runBenchCompare(Benchmark + " --schema " + Result + " --fresh " +
                            Result + " --baseline " + Result),
            2);
  EXPECT_EQ(runBenchCompare(Benchmark + " --schema"), 2); // missing value
  EXPECT_EQ(runBenchCompare(Benchmark + " --fresh " + Result +
                            " --baseline " + Result + " --tolerance 0.5"),
            2);
  // A missing file is an invalid-input failure, not a usage error.
  EXPECT_EQ(runBenchCompare(Benchmark + " --schema /no/such/result.json"), 1);
  EXPECT_EQ(runBenchCompare("--benchmark /no/such/BENCHMARK.json --schema " +
                            Result),
            1);
}
#endif // BENCH_COMPARE_PATH && BENCH_RESULTS_DIR && BENCHMARK_JSON

} // namespace

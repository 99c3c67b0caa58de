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
///    merges equal one histogram fed all samples; percentileMs (the exact
///    reference implementation) handles empty/one/two-sample inputs.
///  - Timeline completeness: every request the service sees — plain runs
///    and chaos storms over all injection sites — yields a timeline that
///    starts with 'submitted' and ends with exactly one terminal event
///    matching the typed outcome; request ids are unique; nothing is
///    orphaned.
///  - Exporters: the JSON snapshot and the Prometheus text render the
///    same registry state (values cross-checked after a parse of each);
///    the JSON-lines event sink emits one valid, kind-decodable object
///    per line.
///  - The perf-regression gate: bench_compare accepts the checked-in
///    BENCH_service.json and rejects a synthetically degraded copy.
///
//===----------------------------------------------------------------------===//

#include "service/GenerationService.h"
#include "service/Telemetry.h"
#include "support/FaultInjection.h"
#include "support/JsonValue.h"
#include "support/JsonWriter.h"
#include "support/Metrics.h"

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
using service::RequestEvent;
using service::RequestEventKind;
using service::ServiceOptions;
using service::ServiceRequest;
using service::ServiceResult;
using service::ServiceStats;
using service::ServiceTelemetry;
using service::TelemetryOptions;
using support::ConcurrentHistogram;
using support::JsonValue;
using support::LatencyHistogram;
using support::MetricRegistry;

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

TEST(PercentileMs, EdgeCases) {
  // The deprecated exact-sort shim stays total on degenerate inputs: it
  // is the reference the histogram tests compare against.
  EXPECT_EQ(GenerationService::percentileMs({}, 50.0), 0.0);
  EXPECT_EQ(GenerationService::percentileMs({}, 0.0), 0.0);

  for (double P : {0.0, 50.0, 99.0, 100.0})
    EXPECT_DOUBLE_EQ(GenerationService::percentileMs({4.25}, P), 4.25);

  // Two samples: linear interpolation on rank (P/100)*(N-1).
  EXPECT_DOUBLE_EQ(GenerationService::percentileMs({1.0, 3.0}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(GenerationService::percentileMs({3.0, 1.0}, 100.0), 3.0);
  EXPECT_DOUBLE_EQ(GenerationService::percentileMs({1.0, 3.0}, 50.0), 2.0);
  EXPECT_DOUBLE_EQ(GenerationService::percentileMs({1.0, 3.0}, 75.0), 2.5);
}

//===----------------------------------------------------------------------===//
// Registry and exporters
//===----------------------------------------------------------------------===//

TEST(MetricRegistry, JsonAndPrometheusRenderTheSameState) {
  MetricRegistry Registry;
  Registry.counter("service.submitted", "requests in").add(42);
  Registry.counter("service.failed").add(3);
  Registry.gauge("service.queue-depth").set(7.5);
  ConcurrentHistogram &H = Registry.histogram("service.latency-ms");
  for (int I = 1; I <= 100; ++I)
    H.record(static_cast<double>(I));

  EXPECT_EQ(Registry.kindOf("service.submitted"),
            support::MetricKind::Counter);
  EXPECT_EQ(Registry.kindOf("service.queue-depth"),
            support::MetricKind::Gauge);
  EXPECT_EQ(Registry.kindOf("service.latency-ms"),
            support::MetricKind::Histogram);
  EXPECT_FALSE(Registry.kindOf("no.such.metric").has_value());

  std::string Json = Registry.renderJson();
  std::string Err;
  ASSERT_TRUE(support::validateJson(Json, &Err)) << Err << "\n" << Json;
  ErrorOr<JsonValue> Parsed = support::parseJson(Json);
  ASSERT_TRUE(Parsed.hasValue()) << Parsed.errorMessage();

  const JsonValue *Counters = Parsed->find("counters");
  ASSERT_NE(Counters, nullptr);
  EXPECT_EQ(Counters->findNumber("service.submitted"), 42.0);
  EXPECT_EQ(Counters->findNumber("service.failed"), 3.0);
  const JsonValue *Gauges = Parsed->find("gauges");
  ASSERT_NE(Gauges, nullptr);
  EXPECT_EQ(Gauges->findNumber("service.queue-depth"), 7.5);
  const JsonValue *Hists = Parsed->find("histograms");
  ASSERT_NE(Hists, nullptr);
  const JsonValue *Latency = Hists->find("service.latency-ms");
  ASSERT_NE(Latency, nullptr);
  EXPECT_EQ(Latency->findNumber("count"), 100.0);
  ASSERT_TRUE(Latency->findNumber("p50_ms").has_value());

  // The Prometheus text must carry the same values for the same metrics.
  std::string Prom = Registry.renderPrometheus("cogent");
  std::map<std::string, double> PromSamples;
  std::istringstream Lines(Prom);
  std::string Line;
  while (std::getline(Lines, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    PromSamples[Line.substr(0, Space)] =
        std::strtod(Line.c_str() + Space + 1, nullptr);
  }
  EXPECT_EQ(PromSamples.at("cogent_service_submitted_total"), 42.0);
  EXPECT_EQ(PromSamples.at("cogent_service_failed_total"), 3.0);
  EXPECT_EQ(PromSamples.at("cogent_service_queue_depth"), 7.5);
  EXPECT_EQ(PromSamples.at("cogent_service_latency_ms_count"), 100.0);
  LatencyHistogram Merged = H.merged();
  EXPECT_EQ(PromSamples.at("cogent_service_latency_ms{quantile=\"0.5\"}"),
            Merged.quantileMs(50.0));
  EXPECT_EQ(PromSamples.at("cogent_service_latency_ms{quantile=\"0.99\"}"),
            Merged.quantileMs(99.0));
  EXPECT_EQ(PromSamples.at("cogent_service_latency_ms_sum"), Merged.sumMs());

  // Round-trip law: every JSON counter/gauge appears in the Prometheus
  // text with the same value (histograms checked above).
  for (const auto &[Name, Value] : Counters->asObject())
    EXPECT_EQ(PromSamples.at("cogent_" + support::prometheusName(Name) +
                             "_total"),
              Value.asNumber())
        << Name;
  for (const auto &[Name, Value] : Gauges->asObject())
    EXPECT_EQ(PromSamples.at("cogent_" + support::prometheusName(Name)),
              Value.asNumber())
        << Name;
}

TEST(ServiceTelemetry, EventRingIsBoundedAndCountsDrops) {
  TelemetryOptions Options;
  Options.EventCapacity = 8;
  ServiceTelemetry Telemetry(Options);
  for (int I = 0; I < 20; ++I)
    Telemetry.recordEvent(Telemetry.beginRequest(),
                          RequestEventKind::Submitted);
  EXPECT_EQ(Telemetry.eventsRecorded(), 20u);
  EXPECT_EQ(Telemetry.events().size(), 8u);
  EXPECT_EQ(Telemetry.eventsDropped(), 12u);
  // The ring keeps the newest events: ids 13..20 survive.
  EXPECT_EQ(Telemetry.events().front().RequestId, 13u);
  EXPECT_EQ(Telemetry.events().back().RequestId, 20u);
}

TEST(ServiceTelemetry, JsonlSinkEmitsOneValidObjectPerLine) {
  std::string Path = ::testing::TempDir() + "telemetry_events.jsonl";
  {
    TelemetryOptions Options;
    Options.EventLogJsonlPath = Path;
    ServiceTelemetry Telemetry(Options);
    uint64_t Id = Telemetry.beginRequest();
    Telemetry.recordEvent(Id, RequestEventKind::Submitted, "ab-ac-cb");
    Telemetry.recordEvent(Id, RequestEventKind::Dequeued, "0.25");
    Telemetry.recordEvent(Id, RequestEventKind::Completed,
                          "none \"quoted\" \\ detail");
  }
  std::ifstream File(Path);
  ASSERT_TRUE(File.good());
  std::string Line;
  size_t Lines = 0;
  while (std::getline(File, Line)) {
    ++Lines;
    std::string Err;
    EXPECT_TRUE(support::validateJson(Line, &Err)) << Err << "\n" << Line;
    ErrorOr<JsonValue> Parsed = support::parseJson(Line);
    ASSERT_TRUE(Parsed.hasValue());
    EXPECT_EQ(Parsed->findNumber("request"), 1.0);
    const JsonValue *Kind = Parsed->find("event");
    ASSERT_NE(Kind, nullptr);
    EXPECT_TRUE(
        service::requestEventKindFromName(Kind->asString()).has_value())
        << Kind->asString();
    ASSERT_TRUE(Parsed->findNumber("at_ms").has_value());
  }
  EXPECT_EQ(Lines, 3u);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Request timelines
//===----------------------------------------------------------------------===//

/// Groups the retained events by request id, in record order.
std::map<uint64_t, std::vector<RequestEvent>>
timelines(const ServiceTelemetry &Telemetry) {
  std::map<uint64_t, std::vector<RequestEvent>> ById;
  for (const RequestEvent &Event : Telemetry.events())
    ById[Event.RequestId].push_back(Event);
  return ById;
}

/// The timeline law: first event 'submitted', exactly one terminal event,
/// and it is the last. \p ExpectTerminal, when set, pins its kind.
void checkTimeline(const std::vector<RequestEvent> &Timeline,
                   std::optional<RequestEventKind> ExpectTerminal,
                   uint64_t Id) {
  ASSERT_FALSE(Timeline.empty()) << "request " << Id << " has no events";
  EXPECT_EQ(Timeline.front().Kind, RequestEventKind::Submitted)
      << "request " << Id;
  size_t Terminals = 0;
  for (const RequestEvent &Event : Timeline)
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
    EXPECT_GE(Timeline[I].AtMs, Timeline[I - 1].AtMs) << "request " << Id;
}

TEST(ServiceTimelines, PlainRunProducesCompleteTimelines) {
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

  auto ById = timelines(Service.telemetry());
  EXPECT_EQ(ById.size(), Requests.size());
  for (const auto &[Id, Timeline] : ById)
    checkTimeline(Timeline, RequestEventKind::Completed, Id);
  // Completed results carry the id their timeline is filed under.
  for (const ErrorOr<ServiceResult> &Result : Results)
    EXPECT_EQ(ById.count(Result->RequestId), 1u);
  // A coalesced or cache-served request says so in its timeline.
  for (const auto &[Id, Timeline] : ById) {
    bool SawCacheHit = false, SawCoalesced = false;
    for (const RequestEvent &Event : Timeline) {
      SawCacheHit |= Event.Kind == RequestEventKind::CacheHit;
      SawCoalesced |= Event.Kind == RequestEventKind::Coalesced;
    }
    (void)SawCacheHit;
    (void)SawCoalesced;
  }
}

TEST(ServiceTimelines, ShedRequestsGetTerminalShedEvents) {
  ServiceOptions Options;
  Options.NumWorkers = 0; // requests queue forever until stop()
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

  auto ById = timelines(Service.telemetry());
  ASSERT_EQ(ById.size(), 4u);
  std::multiset<RequestEventKind> Terminals;
  for (const auto &[Id, Timeline] : ById) {
    checkTimeline(Timeline, std::nullopt, Id);
    Terminals.insert(Timeline.back().Kind);
  }
  EXPECT_EQ(Terminals.count(RequestEventKind::Shed), 2u);
  EXPECT_EQ(Terminals.count(RequestEventKind::Failed), 2u);
}

TEST(ServiceTimelines, SnapshotAndPrometheusAgreeOnServiceState) {
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

  std::string Prom = Service.telemetryPrometheus();
  EXPECT_NE(Prom.find("cogent_service_submitted_total 4"),
            std::string::npos)
      << Prom;
  EXPECT_NE(Prom.find("cogent_service_completed_total 4"),
            std::string::npos);
  EXPECT_NE(Prom.find("cogent_cache_hits_total 3"), std::string::npos);
  EXPECT_NE(Prom.find("cogent_service_latency_ms_count 4"),
            std::string::npos);
}

TEST(ServiceTimelines, SnapshotAloneCarriesEveryServiceInvariant) {
  // One service that completes, coalesces (or serves from the cache),
  // sheds on a full queue and receives a post-stop submit. Everything
  // below reads only the exported snapshot and Prometheus text.
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

  // One name, one kind: no name sits in two sections, and no fact is
  // exported a second time under a process-wide alias.
  std::multiset<std::string> Names;
  for (const char *Section : {"counters", "gauges", "histograms"}) {
    const JsonValue *Metrics = Parsed->find(Section);
    ASSERT_NE(Metrics, nullptr) << Section;
    for (const auto &[Name, Value] : Metrics->asObject()) {
      Names.insert(Name);
      EXPECT_NE(Name.rfind("process.service.", 0), 0u) << Name;
      EXPECT_NE(Name.rfind("process.repository.shard-", 0), 0u) << Name;
    }
  }
  for (const std::string &Name : Names)
    EXPECT_EQ(Names.count(Name), 1u) << Name;

  // One description per metric.
  std::istringstream Prom(Service.telemetryPrometheus());
  std::multiset<std::string> Helped;
  for (std::string Line; std::getline(Prom, Line);)
    if (Line.rfind("# HELP ", 0) == 0)
      Helped.insert(Line.substr(7, Line.find(' ', 7) - 7));
  EXPECT_EQ(Helped.size(), Names.size());
  for (const std::string &Name : Helped)
    EXPECT_EQ(Helped.count(Name), 1u) << Name;
}

#ifdef COGENT_CHAOS_ENABLED
TEST(ServiceTimelines, ChaosStormKeepsEveryTimelineComplete) {
  for (uint64_t Seed : {1ull, 7ull, 23ull}) {
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
    auto ById = timelines(Service.telemetry());
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

#if defined(BENCH_COMPARE_PATH) && defined(BENCH_SERVICE_JSON)
int runBenchCompare(const std::string &Args) {
  std::string Command = std::string(BENCH_COMPARE_PATH) + " " + Args +
                        " > /dev/null 2>&1";
  int Status = std::system(Command.c_str());
  return Status < 0 ? Status : WEXITSTATUS(Status);
}

TEST(BenchCompareGate, AcceptsCheckedInBaseline) {
  EXPECT_EQ(runBenchCompare(std::string("--schema ") + BENCH_SERVICE_JSON),
            0);
  EXPECT_EQ(runBenchCompare(std::string("--fresh ") + BENCH_SERVICE_JSON +
                            " --baseline " + BENCH_SERVICE_JSON),
            0);
}

TEST(BenchCompareGate, RejectsDegradedReportAndBadUsage) {
  // Synthetically degrade the checked-in report: halve throughput well
  // past the tolerance and blow up p99.
  std::ifstream Baseline(BENCH_SERVICE_JSON);
  ASSERT_TRUE(Baseline.good());
  std::stringstream Buffer;
  Buffer << Baseline.rdbuf();
  std::string Text = Buffer.str();
  ErrorOr<JsonValue> Parsed = support::parseJson(Text);
  ASSERT_TRUE(Parsed.hasValue());
  double Throughput =
      Parsed->findNumber("throughput_req_per_s").value_or(0.0);
  ASSERT_GT(Throughput, 0.0);

  auto ReplaceNumber = [&](const std::string &Key, double Value) {
    size_t KeyPos = Text.find("\"" + Key + "\":");
    ASSERT_NE(KeyPos, std::string::npos) << Key;
    size_t Start = KeyPos + Key.size() + 3;
    size_t End = Text.find_first_of(",}", Start);
    ASSERT_NE(End, std::string::npos);
    char Formatted[64];
    std::snprintf(Formatted, sizeof(Formatted), "%.17g", Value);
    Text.replace(Start, End - Start, Formatted);
  };
  ReplaceNumber("throughput_req_per_s", Throughput * 0.01);

  std::string DegradedPath = ::testing::TempDir() + "degraded_bench.json";
  std::ofstream Out(DegradedPath);
  Out << Text;
  Out.close();

  EXPECT_EQ(runBenchCompare("--fresh " + DegradedPath + " --baseline " +
                            BENCH_SERVICE_JSON),
            1);
  // Same degraded report still schema-validates (conservation untouched).
  EXPECT_EQ(runBenchCompare("--schema " + DegradedPath), 0);
  // Usage errors exit 2.
  EXPECT_EQ(runBenchCompare(""), 2);
  EXPECT_EQ(runBenchCompare("--fresh " + DegradedPath), 2);
  // A missing file is an invalid-report failure, not a usage error.
  EXPECT_EQ(runBenchCompare("--schema /no/such/report.json"), 1);
  std::remove(DegradedPath.c_str());
}
#endif // BENCH_COMPARE_PATH && BENCH_SERVICE_JSON

} // namespace

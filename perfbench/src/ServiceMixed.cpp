//===- perfbench/src/ServiceMixed.cpp - service_mixed workload ------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The open-loop service workload: one generator thread submits requests to
/// a 2-worker service::GenerationService on a seeded Poisson schedule and
/// one collector thread waits for them (four busy threads on a four-core
/// box). Setup pre-warms a hot set, the TCCG-48 suite at clamped extents.
/// Traffic is mostly hits on that hot set plus a fixed share of never-seen
/// signatures (suite specs at seed-drawn extents), some sent twice back to
/// back so singleflight coalescing runs. This is the only workload that
/// crosses admission, queueing, cache lookup/insert and telemetry: p50
/// tracks the warm-hit path, p99 and goodput the misses queued behind
/// generation.
///
/// Each request is timed from its due time, so a stall also charges the
/// requests queued behind it; its completion time is the service's
/// submit-to-completion TotalMs, capped by when the collector saw it. A
/// run whose generator falls behind or whose backlog grows is invalid, not
/// slow.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Enumerator.h"
#include "core/KernelRepository.h"
#include "service/GenerationService.h"
#include "suite/TccgSuite.h"

#include <algorithm>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <thread>

using namespace cogent;

namespace perfbench {

namespace {

/// Offered load, requests per second: with 10% misses at ~7-10 ms of
/// generation each, each worker is about a third busy. At half busy a host
/// slowdown of less than 2x already queues most hits behind misses and
/// turns p50 from the warm-hit path into a queueing figure.
constexpr double RatePerS = 400.0;
constexpr unsigned Workers = 2;
constexpr double ColdShare = 0.10;
/// Share of never-seen requests sent a second time right behind the first.
constexpr double DuplicateShare = 0.2;
/// Hot-set extents are clamped to this; cold extents are drawn per index
/// from [ColdMinExtent, ColdMaxExtent].
constexpr int64_t HotMaxExtent = 24;
constexpr int64_t ColdMinExtent = 24;
constexpr int64_t ColdMaxExtent = 48;
/// goodput_share counts requests completed within this limit.
constexpr double LatencyLimitMs = 50.0;
constexpr int SetupRepeats = 5;
/// Validity: generator lateness p99 and the backlog's growth from the
/// first to the last third of the run.
constexpr double MaxLatenessP99Ms = 20.0;
constexpr double MaxBacklogGrowth = 64.0;
/// The generator busy-waits this long before each due time.
constexpr std::chrono::microseconds SpinBeforeDue{200};
/// Distinct never-seen requests the traced run probes layer by layer.
constexpr size_t ProbeRequests = 24;
constexpr size_t RankProbeSample = 32;

struct Signature {
  std::string Spec;
  std::vector<std::pair<char, int64_t>> Extents;
  bool Hot = false;
};

struct Planned {
  double DueMs;
  size_t Sig;
};

struct Record {
  // Written by the generator thread.
  double LatenessMs = 0.0;
  double AdmitUs = 0.0;
  bool Shed = false;
  // Written by the collector thread.
  bool Ok = false;
  bool CacheHit = false;
  bool Coalesced = false;
  double QueueMs = 0.0;
  double TotalMs = 0.0;
  double LatencyMs = 0.0;
  std::string Config;
  size_t SourceHash = 0;
  double Gflops = 0.0;
};

/// The kernel generate() selects for one signature, as the service must
/// serve it.
struct Reference {
  bool Ok = false;
  std::optional<ir::Contraction> PlanTC;
  core::KernelConfig Config;
  std::string ConfigText;
  size_t SourceHash = 0;
};

bool sameKernel(const Record &Served, const Reference &Ref) {
  return Ref.Ok && Served.Config == Ref.ConfigText &&
         Served.SourceHash == Ref.SourceHash;
}

std::vector<Signature> hotSet() {
  std::vector<Signature> Hot;
  for (const suite::SuiteEntry &E : suite::tccgSuite()) {
    Signature S{E.Spec, E.Extents, true};
    for (auto &[Name, Extent] : S.Extents)
      Extent = std::min(Extent, HotMaxExtent);
    Hot.push_back(std::move(S));
  }
  return Hot;
}

service::ServiceOptions serviceOptions() {
  service::ServiceOptions Options;
  Options.NumWorkers = Workers;
  // Room for any transient burst: a shed request here means real overload.
  Options.QueueCapacity = 1 << 16;
  Options.MaxOutstanding = 1 << 16;
  Options.Generation.ElementSize = 8;
  Options.Generation.TopK = 1;
  return Options;
}

service::ServiceRequest toRequest(const Signature &S) {
  service::ServiceRequest R;
  R.Spec = S.Spec;
  R.Extents = S.Extents;
  return R;
}

/// The seeded schedule: one request every 1/RatePerS seconds; in each block
/// of 1/ColdShare consecutive slots one seed-chosen slot carries a
/// never-seen request and the rest seed-drawn hot-set picks. Never-seen
/// requests walk the suite in seed-shuffled rounds, so every run sends the
/// same mix of specs and only their extents and order change.
std::vector<Planned> makeSchedule(const RunArgs &Args,
                                  std::vector<Signature> &Sigs) {
  std::mt19937_64 Rng(Args.Seed);
  std::uniform_real_distribution<double> Unit(0.0, 1.0);
  std::set<std::string> Seen;
  for (const Signature &S : Sigs)
    Seen.insert(core::contractionSignature(S.Spec, S.Extents, 8));
  const size_t NumHot = Sigs.size();
  const std::vector<suite::SuiteEntry> &Suite = suite::tccgSuite();
  std::vector<size_t> Round;
  std::vector<Planned> Plan;
  const double PeriodMs = 1000.0 / RatePerS;
  const size_t Block = static_cast<size_t>(1.0 / ColdShare + 0.5);
  size_t ColdSlot = 0;
  for (size_t Slot = 0; Slot * PeriodMs < Args.Seconds * 1000.0; ++Slot) {
    double Due = static_cast<double>(Slot) * PeriodMs;
    if (Slot % Block == 0)
      ColdSlot = Slot + Rng() % Block;
    if (Slot != ColdSlot) {
      Plan.push_back({Due, static_cast<size_t>(Rng() % NumHot)});
      continue;
    }
    if (Round.empty()) {
      for (size_t I = 0; I < Suite.size(); ++I)
        Round.push_back(I);
      std::shuffle(Round.begin(), Round.end(), Rng);
    }
    const suite::SuiteEntry &E = Suite[Round.back()];
    Round.pop_back();
    Signature Cold;
    do {
      Cold = Signature{E.Spec, E.Extents, false};
      for (auto &[Name, Extent] : Cold.Extents)
        Extent = ColdMinExtent +
                 static_cast<int64_t>(Rng() % (ColdMaxExtent - ColdMinExtent +
                                               1));
    } while (!Seen.insert(core::contractionSignature(Cold.Spec, Cold.Extents,
                                                     8))
                  .second);
    Sigs.push_back(std::move(Cold));
    Plan.push_back({Due, Sigs.size() - 1});
    if (Unit(Rng) < DuplicateShare)
      Plan.push_back({Due, Sigs.size() - 1});
  }
  return Plan;
}

struct Handoff {
  size_t Index;
  std::shared_ptr<service::PendingRequest> Handle;
  Clock::time_point SentAt;
};

} // namespace

bool runServiceMixed(const RunArgs &Args, Report &Out) {
  gpu::DeviceSpec Device = gpu::makeV100();
  std::vector<Signature> Sigs = hotSet();
  const size_t NumHot = Sigs.size();

  // Setup: start the service and pre-warm the hot set through it.
  std::unique_ptr<service::GenerationService> Service;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Service.reset();
    Clock::time_point T0 = Clock::now();
    Service =
        std::make_unique<service::GenerationService>(Device, serviceOptions());
    std::vector<service::ServiceRequest> Warm;
    for (size_t I = 0; I < NumHot; ++I)
      Warm.push_back(toRequest(Sigs[I]));
    for (const ErrorOr<service::ServiceResult> &R : Service->processBatch(Warm))
      if (!R) {
        std::fprintf(stderr, "perfbench: hot-set pre-warm failed: %s\n",
                     R.errorMessage().c_str());
        return false;
      }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }

  std::vector<Planned> Plan = makeSchedule(Args, Sigs);
  std::vector<Record> Records(Plan.size());
  service::ServiceStats Before = Service->stats();

  std::mutex Lock;
  std::condition_variable Ready;
  std::deque<Handoff> Pending;
  bool Finished = false;
  std::atomic<size_t> Completed{0};
  std::vector<std::pair<double, double>> Backlog; // (due ms, outstanding)
  Clock::time_point LastCompletion;

  support::TraceSession Session;
  CpuTicks TicksBefore = cpuTicks();
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  const double TracedFromMs = Args.Trace ? Args.Seconds * 500.0 : 1e300;

  std::thread LoadGen([&] {
    double NextBacklogMs = 0.0;
    for (size_t I = 0; I < Plan.size(); ++I) {
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double, std::milli>(Plan[I].DueMs));
      // Sleep, then spin the last stretch: wake-up jitter belongs to the
      // load generator, not to the service under test.
      std::this_thread::sleep_until(Due - SpinBeforeDue);
      Clock::time_point Sent = Clock::now();
      while (Sent < Due)
        Sent = Clock::now();
      ErrorOr<std::shared_ptr<service::PendingRequest>> Handle = [&] {
        support::TraceSpan Span("bench.service.submit");
        return Service->submit(toRequest(Sigs[Plan[I].Sig]));
      }();
      Records[I].LatenessMs = msBetween(Due, Sent);
      Records[I].AdmitUs = msBetween(Sent, Clock::now()) * 1000.0;
      if (Plan[I].DueMs >= NextBacklogMs) {
        Backlog.emplace_back(Plan[I].DueMs,
                             static_cast<double>(I - Completed.load()));
        NextBacklogMs = Plan[I].DueMs + 100.0;
      }
      std::lock_guard<std::mutex> Guard(Lock);
      if (!Handle) {
        Records[I].Shed = true;
        Pending.push_back({I, nullptr, Sent});
      } else {
        Pending.push_back({I, *Handle, Sent});
      }
      Ready.notify_one();
    }
    std::lock_guard<std::mutex> Guard(Lock);
    Finished = true;
    Ready.notify_one();
  });

  std::thread Collector([&] {
    std::hash<std::string> Hash;
    while (true) {
      Handoff Next;
      {
        std::unique_lock<std::mutex> Guard(Lock);
        Ready.wait(Guard, [&] { return Finished || !Pending.empty(); });
        if (Pending.empty())
          break;
        Next = std::move(Pending.front());
        Pending.pop_front();
      }
      Record &R = Records[Next.Index];
      if (Next.Handle) {
        ErrorOr<service::ServiceResult> Result = Service->wait(Next.Handle);
        double SeenMs = msBetween(Next.SentAt, Clock::now());
        if (Result) {
          R.Ok = true;
          R.CacheHit = Result->CacheHit;
          R.Coalesced = Result->Coalesced;
          R.QueueMs = Result->QueueMs;
          R.TotalMs = Result->TotalMs;
          R.LatencyMs = R.LatenessMs + std::min(Result->TotalMs, SeenMs);
          R.Config = Result->Kernel.Config.toString();
          R.SourceHash = Hash(Result->Kernel.Source.KernelSource);
          R.Gflops = Result->Kernel.Predicted.Gflops;
        }
      }
      ++Completed;
      LastCompletion = Clock::now();
    }
  });

  std::optional<support::ScopedTraceActivation> Tracing;
  if (Args.Trace) {
    std::this_thread::sleep_until(
        Start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double, std::milli>(TracedFromMs)));
    Tracing.emplace(&Session);
  }
  LoadGen.join();
  Collector.join();
  Tracing.reset();
  double PeakRssMb = peakRssMb();
  double StealShare = stealShare(TicksBefore, cpuTicks());
  double ServedS = msBetween(Start, LastCompletion) / 1000.0;
  double DrainMs = msBetween(Start, LastCompletion) - Args.Seconds * 1000.0;
  service::ServiceStats After = Service->stats();
  Service.reset();

  // Reference selections, outside the timed region: generate() with the
  // service's options for every distinct signature served.
  std::vector<size_t> Served;
  {
    std::vector<bool> Mark(Sigs.size(), false);
    for (const Planned &P : Plan)
      if (!Mark[P.Sig]) {
        Mark[P.Sig] = true;
        Served.push_back(P.Sig);
      }
  }
  core::Cogent Generator(Device);
  core::CogentOptions GenOptions = serviceOptions().Generation;
  std::vector<Reference> Refs(Sigs.size());
  unsigned Threads =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  parallelFor(Served.size(), Threads, [&](size_t I) {
    const Signature &S = Sigs[Served[I]];
    ErrorOr<core::GenerationResult> R =
        Generator.generate(S.Spec, S.Extents, GenOptions);
    if (!R)
      return;
    ErrorOr<ir::Contraction> TC = ir::Contraction::parse(S.Spec, S.Extents);
    if (!TC)
      return;
    Reference &Ref = Refs[Served[I]];
    Ref.Ok = true;
    Ref.PlanTC = planContraction(*TC, *R);
    Ref.Config = R->best().Config;
    Ref.ConfigText = Ref.Config.toString();
    Ref.SourceHash = std::hash<std::string>()(R->best().Source.KernelSource);
  });
  OutputCheck Check(Args.Seed);
  std::vector<std::string> CheckKey(Sigs.size());
  for (size_t S : Served)
    if (Refs[S].Ok)
      CheckKey[S] = Check.add(*Refs[S].PlanTC, Refs[S].Config, Device);
  Check.run(Threads);

  uint64_t Failed = 0, Good = 0, Mismatched = 0, Shed = 0;
  double BusyMs = 0.0;
  std::vector<double> Latency, LatencyUntraced, LatencyTraced, Lateness,
      AdmitUs, QueueMs, HitMs, MissMs;
  std::vector<double> Gflops;
  std::vector<bool> Counted(Sigs.size(), false);
  for (size_t I = 0; I < Plan.size(); ++I) {
    const Record &R = Records[I];
    size_t S = Plan[I].Sig;
    Lateness.push_back(R.LatenessMs);
    AdmitUs.push_back(R.AdmitUs);
    Shed += R.Shed;
    bool Match = R.Ok && sameKernel(R, Refs[S]);
    Mismatched += R.Ok && !Match;
    bool Ok = Match && Check.passed(CheckKey[S]);
    Failed += !Ok;
    if (!R.Ok)
      continue;
    Good += Ok && R.LatencyMs <= LatencyLimitMs;
    Latency.push_back(R.LatencyMs);
    (Plan[I].DueMs >= TracedFromMs ? LatencyTraced : LatencyUntraced)
        .push_back(R.LatencyMs);
    QueueMs.push_back(R.QueueMs);
    if (!R.Coalesced)
      BusyMs += R.TotalMs - R.QueueMs;
    (R.CacheHit ? HitMs : MissMs).push_back(R.LatencyMs);
    // The selection-quality geomean covers the hot set only: the never-seen
    // signatures change with the seed, the hot set does not.
    if (Ok && S < NumHot && !Counted[S]) {
      Counted[S] = true;
      Gflops.push_back(R.Gflops);
    }
  }

  // Validity: the generator kept to its schedule and the backlog did not
  // grow over the run.
  double LatenessP99 = percentile(Lateness, 99.0);
  auto thirdMean = [&](size_t Third) {
    std::vector<double> Part;
    for (const auto &[DueMs, Outstanding] : Backlog)
      if (static_cast<size_t>(DueMs * 3.0 / (Args.Seconds * 1000.0)) == Third)
        Part.push_back(Outstanding);
    return mean(Part);
  };
  double BacklogGrowth = thirdMean(2) - thirdMean(0);
  JsonObject Validity;
  Validity.num("lateness_ms_p99", LatenessP99)
      .num("lateness_ms_p99_limit", MaxLatenessP99Ms)
      .num("backlog_first_third", thirdMean(0))
      .num("backlog_last_third", thirdMean(2))
      .num("backlog_growth_limit", MaxBacklogGrowth)
      .num("drain_ms", DrainMs);
  Out.Details.obj("validity", Validity);
  if (LatenessP99 > MaxLatenessP99Ms || BacklogGrowth > MaxBacklogGrowth) {
    std::fprintf(stderr,
                 "perfbench: invalid run: generator lateness p99 %.3f ms "
                 "(limit %.1f), backlog growth %.1f requests (limit %.0f)\n",
                 LatenessP99, MaxLatenessP99Ms, BacklogGrowth,
                 MaxBacklogGrowth);
    return false;
  }

  double Attempted = static_cast<double>(Plan.size());
  Out.Attempted = Plan.size();
  Out.Failed = Failed;
  if (!Args.Trace) {
    Out.add("setup_s", median(SetupS), "s");
    Out.add("throughput_per_s",
            (Attempted - static_cast<double>(Failed)) / ServedS, "1/s");
    Out.add("latency_p50_ms", percentile(Latency, 50.0), "ms");
    Out.add("latency_p99_ms", percentile(Latency, 99.0), "ms");
    Out.add("ok_share", (Attempted - static_cast<double>(Failed)) / Attempted,
            "share");
    Out.add("goodput_share", static_cast<double>(Good) / Attempted, "share");
    Out.add("peak_rss_mb", PeakRssMb, "MiB");
    Out.add("kernel_gflops_geomean", geomean(Gflops), "GFLOPS");
  } else {
    // Layer times of the serving path come from the workers' own spans;
    // counts and per-call costs from outside calls on a sample of the
    // never-seen requests, made after the run.
    LayerTotals Layers;
    accountSpans(Session, "cogent.generate", Layers);
    size_t Probed = 0;
    for (size_t S = NumHot; S < Sigs.size() && Probed < ProbeRequests; ++S) {
      if (!Refs[S].Ok)
        continue;
      ErrorOr<ir::Contraction> TC =
          ir::Contraction::parse(Sigs[S].Spec, Sigs[S].Extents);
      ErrorOr<core::GenerationResult> R = Generator.generate(*TC, GenOptions);
      if (!R)
        continue;
      accountCounters(*R, Layers);
      core::EnumerationOptions Enum;
      Enum.ElementSize = GenOptions.ElementSize;
      std::vector<core::KernelConfig> All =
          core::Enumerator(*TC, Device, Enum).enumerate();
      if (All.size() > RankProbeSample)
        All.resize(RankProbeSample);
      support::TraceSession ProbeSession;
      {
        support::ScopedTraceActivation Active(&ProbeSession);
        probeRank(*TC, All, Device, GenOptions.ElementSize, Layers);
        probeEmit(*TC, *R, Device, GenOptions.ElementSize, Layers);
      }
      accountSpans(ProbeSession, "cogent.generate", Layers);
      ++Probed;
    }
    addLayerMetrics(Layers, Out);
    Out.add("service.admit_us", percentile(AdmitUs, 50.0), "us");
    Out.add("service.queue_ms_p50", percentile(QueueMs, 50.0), "ms");
    Out.add("service.queue_ms_p99", percentile(QueueMs, 99.0), "ms");
    Out.add("service.hit_ms_p50", percentile(HitMs, 50.0), "ms");
    Out.add("service.miss_ms_p50", percentile(MissMs, 50.0), "ms");
    Out.add("service.miss_ms_p99", percentile(MissMs, 99.0), "ms");
    Out.add("service.cache_hit_share",
            Latency.empty() ? 0.0
                            : static_cast<double>(HitMs.size()) /
                                  static_cast<double>(Latency.size()),
            "share");
    Out.add("service.coalesced",
            static_cast<double>(After.Coalesced - Before.Coalesced), "count");
    Out.add("service.shed", static_cast<double>(Shed), "count");
    Out.add("service.retries",
            static_cast<double>(After.Retries - Before.Retries), "count");
    Out.add("loadgen.lateness_ms_p99", LatenessP99, "ms");
    Out.add("verify.traffic_disagreements",
            static_cast<double>(Check.trafficDisagreements()), "count");
    Out.add("trace.overhead_share",
            percentile(LatencyTraced, 50.0) /
                    percentile(LatencyUntraced, 50.0) -
                1.0,
            "share");
  }

  JsonObject Params;
  Params.str("loop", "open")
      .num("rate_per_s", RatePerS)
      .num("workers", Workers)
      .num("generator_threads", 1)
      .num("collector_threads", 1)
      .strList("devices", {Device.Name})
      .num("element_size", 8)
      .num("topk", 1)
      .str("lint", "strict (default)")
      .str("deadlines", "none")
      .num("hot_set", static_cast<double>(NumHot))
      .num("hot_max_extent", static_cast<double>(HotMaxExtent))
      .num("cold_share", ColdShare)
      .str("cold_extents", std::to_string(ColdMinExtent) + "-" +
                               std::to_string(ColdMaxExtent))
      .num("cold_duplicate_share", DuplicateShare)
      .num("latency_limit_ms", LatencyLimitMs)
      .num("setup_repeats", SetupRepeats);
  Out.Details.obj("workload_params", Params);
  JsonObject Samples;
  Samples.obj("latency", describeSamples(Latency))
      .obj("hits", describeSamples(HitMs))
      .obj("misses", describeSamples(MissMs))
      .num("host_steal_share", StealShare)
      .num("never_seen_signatures", static_cast<double>(Sigs.size() - NumHot))
      .num("coalesced", static_cast<double>(After.Coalesced - Before.Coalesced))
      .num("worker_busy_share", BusyMs / (Workers * Args.Seconds * 1000.0));
  Samples.obj("setup", describeSetup(SetupS));
  Out.Details.obj("samples", Samples);

  // Negative control: corrupted selections through the differential
  // check, and a served kernel compared against another signature's
  // reference through the equality check.
  bool ControlCaught = false;
  JsonObject CheckRecord;
  CheckRecord
      .num("distinct_kernels_checked", static_cast<double>(Check.size()))
      .num("kernels_failed", static_cast<double>(Check.failures()))
      .num("served_not_equal_to_generate", static_cast<double>(Mismatched))
      .strList("failures", Check.failureNotes(4))
      .num("traffic_model_disagreements",
           static_cast<double>(Check.trafficDisagreements()))
      .strList("traffic_model_notes", Check.trafficNotes(4));
  if (Refs[0].Ok) {
    JsonObject Control = runNegativeControl(*Refs[0].PlanTC, Refs[0].Config,
                                            Device, Args.Seed, ControlCaught);
    const Record *Served0 = nullptr;
    for (size_t I = 0; I < Plan.size() && !Served0; ++I)
      if (Plan[I].Sig == 0 && Records[I].Ok)
        Served0 = &Records[I];
    size_t Other = 1;
    while (Other < NumHot && Refs[Other].ConfigText == Refs[0].ConfigText)
      ++Other;
    bool EqualityCaught = Served0 && Other < NumHot &&
                          !sameKernel(*Served0, Refs[Other]);
    Control.flag("served_vs_other_reference_counted_failed", EqualityCaught);
    ControlCaught = ControlCaught && EqualityCaught;
    CheckRecord.obj("negative_control", Control);
  }
  Out.Details.obj("output_check", CheckRecord);
  Out.Correct = Failed == 0 && ControlCaught;
  return true;
}

} // namespace perfbench

//===- perfbench/src/ClosedLoop.cpp - suite_top1 and shortlist_top8 -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two closed-loop library workloads: one client thread calls
/// core::Cogent::generate back to back over a seed-shuffled pass of suite
/// entries, then the next pass, until the run's time is up.
///
///   suite_top1     TCCG-48 at paper extents on V100 and P100, fp64,
///                  TopK=1: the paper's pure model choice (Figs. 4/5).
///                  Rank and enumerate dominate the CCSD(T) entries.
///   shortlist_top8 ids 1-19 (ML, AO-MO, CCSD) on V100, fp32, TopK=8: the
///                  "auto-tune among a small model-selected set" path.
///                  Emit, verifySource and the lint gate dominate.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "core/Enumerator.h"
#include "suite/TccgSuite.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>

using namespace cogent;

namespace perfbench {

namespace {

struct ClosedLoopParams {
  std::vector<gpu::DeviceSpec> Devices;
  int FirstId, LastId;
  unsigned ElementSize;
  size_t TopK;
  /// goodput_share counts calls that succeed within this limit.
  double LatencyLimitMs;
};

struct Request {
  int Id;
  ir::Contraction TC;
  size_t Device;
};

/// One distinct (request, selected kernels) outcome.
struct Selection {
  size_t Request;
  ir::Contraction PlanTC;
  std::vector<core::KernelConfig> Configs;
  double Gflops = 0.0;
  std::vector<std::string> CheckKeys;
  bool Passed = true;
};

struct Op {
  size_t Request;
  double Ms;
  bool Traced;
  /// Index into the run's selections; SIZE_MAX when generate() failed.
  size_t Selection;
};

/// Setup is timed this many times per run and reported as the median.
constexpr int SetupRepeats = 15;
/// Candidates per traced call timed through the rank layer's functions.
constexpr size_t RankProbeSample = 32;

std::string selectionKey(size_t Request,
                         const core::GenerationResult &Result) {
  std::string Key = std::to_string(Request);
  for (const core::GeneratedKernel &K : Result.Kernels)
    Key += "|" + K.Config.toString();
  return Key;
}

bool runClosedLoop(const ClosedLoopParams &P, const RunArgs &Args,
                   Report &Out) {
  core::CogentOptions Options;
  Options.ElementSize = P.ElementSize;
  Options.TopK = P.TopK;

  // Setup: bind a generator per device, parse every request, and run one
  // warm-up generate() per device on the workload's first entry.
  std::vector<core::Cogent> Generators;
  std::vector<Request> Requests;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    Clock::time_point T0 = Clock::now();
    Generators.clear();
    Requests.clear();
    for (const gpu::DeviceSpec &Device : P.Devices)
      Generators.emplace_back(Device);
    for (size_t D = 0; D < P.Devices.size(); ++D)
      for (int Id = P.FirstId; Id <= P.LastId; ++Id) {
        ErrorOr<ir::Contraction> TC = suite::suiteEntry(Id).tryContraction();
        if (!TC) {
          std::fprintf(stderr, "perfbench: suite entry %d: %s\n", Id,
                       TC.errorMessage().c_str());
          return false;
        }
        Requests.push_back({Id, *TC, D});
      }
    for (size_t D = 0; D < P.Devices.size(); ++D)
      if (!Generators[D].generate(Requests[D * (P.LastId - P.FirstId + 1)].TC,
                                  Options)) {
        std::fprintf(stderr, "perfbench: warm-up generate failed\n");
        return false;
      }
    SetupS.push_back(msBetween(T0, Clock::now()) / 1000.0);
  }

  // Passes: every request once, in a fresh seed-shuffled order.
  std::mt19937_64 Rng(Args.Seed);
  std::vector<size_t> Order;
  size_t Cursor = 0;
  auto nextRequest = [&]() -> size_t {
    if (Cursor == Order.size()) {
      Order.resize(Requests.size());
      for (size_t I = 0; I < Order.size(); ++I)
        Order[I] = I;
      std::shuffle(Order.begin(), Order.end(), Rng);
      Cursor = 0;
    }
    return Order[Cursor++];
  };

  std::vector<Op> Ops;
  std::vector<Selection> Selections;
  std::map<std::string, size_t> SelectionIndex;
  std::vector<size_t> FirstSelection(Requests.size(), SIZE_MAX);
  auto record = [&](size_t R, const ErrorOr<core::GenerationResult> &Result,
                    double Ms, bool Traced) {
    size_t Sel = SIZE_MAX;
    if (Result) {
      auto [It, Fresh] =
          SelectionIndex.try_emplace(selectionKey(R, *Result),
                                     Selections.size());
      if (Fresh) {
        Selection S{R, planContraction(Requests[R].TC, *Result), {}, 0.0, {}, true};
        for (const core::GeneratedKernel &K : Result->Kernels)
          S.Configs.push_back(K.Config);
        S.Gflops = Result->best().Predicted.Gflops;
        Selections.push_back(std::move(S));
      }
      Sel = It->second;
    }
    Ops.push_back({R, Ms, Traced, Sel});
  };

  // Traced run state: survivors per request for the rank-layer probes, and
  // the layer split per suite category for the detail line.
  LayerTotals Layers;
  std::map<std::string, LayerTotals> ByCategory;
  std::map<size_t, std::vector<core::KernelConfig>> Survivors;
  size_t ProbeOffset = 0;
  auto tracedCall = [&](size_t R) {
    const Request &Req = Requests[R];
    const gpu::DeviceSpec &Device = P.Devices[Req.Device];
    auto [It, Fresh] = Survivors.try_emplace(R);
    if (Fresh) {
      core::EnumerationOptions Enum;
      Enum.ElementSize = P.ElementSize;
      It->second = core::Enumerator(Req.TC, Device, Enum).enumerate();
    }
    support::TraceSession Session;
    core::CogentOptions Traced = Options;
    Traced.Trace = &Session;
    support::ScopedTraceActivation Active(&Session);
    Clock::time_point T0 = Clock::now();
    ErrorOr<core::GenerationResult> Result = [&] {
      support::TraceSpan Span("bench.generate");
      return Generators[Req.Device].generate(Req.TC, Traced);
    }();
    double Ms = msBetween(T0, Clock::now());
    if (Result) {
      accountCounters(*Result, Layers);
      std::vector<core::KernelConfig> Sample;
      const std::vector<core::KernelConfig> &All = It->second;
      for (size_t I = 0; I < std::min(RankProbeSample, All.size()); ++I)
        Sample.push_back(All[(ProbeOffset + I) % All.size()]);
      ProbeOffset += RankProbeSample;
      probeRank(Req.TC, Sample, Device, P.ElementSize, Layers);
      probeEmit(Req.TC, *Result, Device, P.ElementSize, Layers);
    }
    accountSpans(Session, "bench.generate", Layers);
    accountSpans(Session, "bench.generate",
                 ByCategory[suite::categoryName(suite::suiteEntry(Req.Id).Cat)]);
    record(R, Result, Ms, /*Traced=*/true);
  };

  CpuTicks TicksBefore = cpuTicks();
  Clock::time_point Start = Clock::now();
  double ElapsedS = 0.0;
  while (ElapsedS < Args.Seconds) {
    size_t R = nextRequest();
    Clock::time_point T0 = Clock::now();
    ErrorOr<core::GenerationResult> Result =
        Generators[Requests[R].Device].generate(Requests[R].TC, Options);
    Clock::time_point T1 = Clock::now();
    record(R, Result, msBetween(T0, T1), /*Traced=*/false);
    // The traced run calls each request twice in a row, untraced then
    // traced, so both samples cover the same request mix.
    if (Args.Trace)
      tracedCall(R);
    ElapsedS = msBetween(Start, Clock::now()) / 1000.0;
  }
  double PeakRssMb = peakRssMb();
  double StealShare = stealShare(TicksBefore, cpuTicks());

  // Output check, outside the timed region: every distinct selection's
  // kernels against the reference contraction, and every call's selection
  // equal to the first one made for its request.
  OutputCheck Check(Args.Seed);
  for (Selection &S : Selections)
    for (const core::KernelConfig &Config : S.Configs)
      S.CheckKeys.push_back(
          Check.add(S.PlanTC, Config, P.Devices[Requests[S.Request].Device]));
  Check.run(std::max(1u, std::min(4u, std::thread::hardware_concurrency())));
  for (Selection &S : Selections)
    for (const std::string &Key : S.CheckKeys)
      S.Passed = S.Passed && Check.passed(Key);

  uint64_t Failed = 0, Good = 0, Irreproducible = 0;
  std::vector<double> Untraced, TracedMs;
  for (const Op &O : Ops) {
    bool Ok = O.Selection != SIZE_MAX && Selections[O.Selection].Passed;
    if (Ok) {
      size_t &First = FirstSelection[O.Request];
      if (First == SIZE_MAX)
        First = O.Selection;
      if (First != O.Selection) {
        Ok = false;
        ++Irreproducible;
      }
    }
    Failed += !Ok;
    Good += Ok && O.Ms <= P.LatencyLimitMs;
    (O.Traced ? TracedMs : Untraced).push_back(O.Ms);
  }
  std::vector<double> Gflops;
  for (size_t R = 0; R < Requests.size(); ++R)
    if (FirstSelection[R] != SIZE_MAX)
      Gflops.push_back(Selections[FirstSelection[R]].Gflops);

  Out.Attempted = Ops.size();
  Out.Failed = Failed;
  double Attempted = static_cast<double>(Ops.size());
  if (!Args.Trace) {
    Out.add("setup_s", median(SetupS), "s");
    Out.add("throughput_per_s", Attempted / ElapsedS, "1/s");
    Out.add("latency_p50_ms", percentile(Untraced, 50.0), "ms");
    Out.add("latency_p99_ms", percentile(Untraced, 99.0), "ms");
    Out.add("ok_share", (Attempted - static_cast<double>(Failed)) / Attempted,
            "share");
    Out.add("goodput_share", static_cast<double>(Good) / Attempted, "share");
    Out.add("peak_rss_mb", PeakRssMb, "MiB");
    Out.add("kernel_gflops_geomean", geomean(Gflops), "GFLOPS");
  } else {
    addLayerMetrics(Layers, Out);
    addServiceMetricsNotApplicable(Out);
    Out.add("verify.traffic_disagreements",
            static_cast<double>(Check.trafficDisagreements()), "count");
    Out.add("trace.overhead_share",
            percentile(TracedMs, 50.0) / percentile(Untraced, 50.0) - 1.0,
            "share");
  }

  std::vector<std::string> DeviceNames;
  for (const gpu::DeviceSpec &D : P.Devices)
    DeviceNames.push_back(D.Name);
  JsonObject Params;
  Params.str("loop", "closed")
      .num("client_threads", 1)
      .strList("devices", DeviceNames)
      .str("suite_ids", std::to_string(P.FirstId) + "-" +
                            std::to_string(P.LastId))
      .num("element_size", P.ElementSize)
      .num("topk", static_cast<double>(P.TopK))
      .str("lint", "strict (default)")
      .num("latency_limit_ms", P.LatencyLimitMs)
      .num("setup_repeats", SetupRepeats);
  Out.Details.obj("workload_params", Params);
  JsonObject Samples;
  Samples.obj("latency", describeSamples(Untraced));
  if (Args.Trace)
    Samples.obj("latency_traced", describeSamples(TracedMs));
  Samples.num("passes", static_cast<double>(Untraced.size()) /
                            static_cast<double>(Requests.size()))
      .num("elapsed_s", ElapsedS)
      .num("host_steal_share", StealShare);
  Samples.obj("setup", describeSetup(SetupS));
  Out.Details.obj("samples", Samples);
  JsonObject CheckRecord;
  CheckRecord.num("distinct_kernels_checked", static_cast<double>(Check.size()))
      .num("kernels_failed", static_cast<double>(Check.failures()))
      .num("irreproducible_calls", static_cast<double>(Irreproducible))
      .strList("failures", Check.failureNotes(4))
      .num("traffic_model_disagreements",
           static_cast<double>(Check.trafficDisagreements()))
      .strList("traffic_model_notes", Check.trafficNotes(4));
  bool ControlCaught = false;
  if (!Selections.empty()) {
    const Selection &S = Selections.front();
    CheckRecord.obj("negative_control",
                    runNegativeControl(S.PlanTC, S.Configs.front(),
                                       P.Devices[Requests[S.Request].Device],
                                       Args.Seed, ControlCaught));
  }
  Out.Details.obj("output_check", CheckRecord);
  if (Args.Trace) {
    JsonObject Spans;
    Spans.num("traced_calls", static_cast<double>(Layers.GenerateCalls))
        .num("fallback_ms", Layers.FallbackMs)
        .num("generate_wall_ms", Layers.GenerateWallMs);
    // Self time per traced call by suite category: where each call's time
    // goes, to confirm what each workload stresses.
    JsonObject Split;
    for (const auto &[Category, T] : ByCategory) {
      double Calls = static_cast<double>(T.GenerateCalls);
      JsonObject Row;
      Row.num("calls", Calls)
          .num("wall_ms", T.GenerateWallMs / Calls)
          .num("enumerate_ms", T.EnumerateMs / Calls)
          .num("rank_ms", T.RankMs / Calls)
          .num("emit_ms", T.EmitMs / Calls)
          .num("fallback_ms", T.FallbackMs / Calls)
          .num("unattributed_ms", T.UnattributedMs / Calls);
      Split.obj(Category, Row);
    }
    Spans.obj("by_category", Split);
    Out.Details.obj("trace", Spans);
  }
  Out.Correct = Failed == 0 && ControlCaught;
  return true;
}

} // namespace

bool runSuiteTop1(const RunArgs &Args, Report &Out) {
  return runClosedLoop(
      {{gpu::makeV100(), gpu::makeP100()}, 1, 48, 8, 1, 50.0}, Args, Out);
}

bool runShortlistTop8(const RunArgs &Args, Report &Out) {
  return runClosedLoop({{gpu::makeV100()}, 1, 19, 4, 8, 60.0}, Args, Out);
}

} // namespace perfbench

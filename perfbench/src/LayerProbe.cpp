//===- perfbench/src/LayerProbe.cpp - Per-layer spans and probes ----------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's per-layer numbers. Two sources, both recorded as spans
/// in one support::TraceSession per traced call:
///  - the program's own cogent.enumerate/rank/emit/fallback spans inside
///    generate(), turned on through CogentOptions::Trace;
///  - benchmark-side "bench.*" spans around outside calls into each layer's
///    public functions on the same inputs (the rank layer's KernelPlan /
///    verifyPlan / estimateTransactions / verifyCost / planOccupancy, the
///    emit layer's emitCuda / verifySource, the analysis layer's lintKernel
///    / parseKernelSource / buildDataflow / proveRaces).
/// Every layer is reported as its span's self time: its duration minus the
/// part its child spans cover.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "analysis/KernelDataflow.h"
#include "analysis/KernelLint.h"
#include "analysis/KernelModel.h"
#include "analysis/KernelRaceProver.h"
#include "core/CodeGen.h"
#include "core/CostModel.h"
#include "core/KernelPlan.h"
#include "verify/PlanVerifier.h"

#include <algorithm>
#include <cstring>

using namespace cogent;

namespace perfbench {

namespace {

struct SpanNode {
  const support::TraceEvent *Event;
  double ChildUs = 0.0;
  double endUs() const { return Event->TimestampUs + Event->DurationUs; }
};

/// Self time, us, of every complete span, keyed by event index.
std::vector<double> selfTimesUs(const std::vector<support::TraceEvent> &Events) {
  std::vector<size_t> Order;
  for (size_t I = 0; I < Events.size(); ++I)
    if (Events[I].Phase == 'X')
      Order.push_back(I);
  // Per thread, parents before children: earlier start first, and at equal
  // starts the longer span first.
  std::sort(Order.begin(), Order.end(), [&](size_t X, size_t Y) {
    const support::TraceEvent &A = Events[X], &B = Events[Y];
    if (A.ThreadId != B.ThreadId)
      return A.ThreadId < B.ThreadId;
    if (A.TimestampUs != B.TimestampUs)
      return A.TimestampUs < B.TimestampUs;
    return A.DurationUs > B.DurationUs;
  });
  std::vector<double> Self(Events.size(), 0.0);
  std::vector<std::pair<size_t, SpanNode>> Stack;
  auto Close = [&] {
    const SpanNode &Top = Stack.back().second;
    Self[Stack.back().first] = Top.Event->DurationUs - Top.ChildUs;
    Stack.pop_back();
  };
  for (size_t Index : Order) {
    const support::TraceEvent &E = Events[Index];
    if (!Stack.empty() && Stack.back().second.Event->ThreadId != E.ThreadId)
      while (!Stack.empty())
        Close();
    while (!Stack.empty() && Stack.back().second.endUs() <= E.TimestampUs)
      Close();
    if (!Stack.empty())
      Stack.back().second.ChildUs += E.DurationUs;
    Stack.push_back({Index, SpanNode{&E}});
  }
  while (!Stack.empty())
    Close();
  return Self;
}

bool named(const support::TraceEvent &E, const char *Name) {
  return std::strcmp(E.Name, Name) == 0;
}

double counterValue(const support::CounterSnapshot &Snapshot,
                    const char *Name) {
  for (const support::CounterValue &C : Snapshot)
    if (C.Name && std::strcmp(C.Name, Name) == 0)
      return static_cast<double>(C.Value);
  return 0.0;
}

} // namespace

void accountSpans(const support::TraceSession &Session, const char *Root,
                  LayerTotals &T) {
  std::vector<support::TraceEvent> Events = Session.events();
  std::vector<double> Self = selfTimesUs(Events);
  // Span name -> accumulator of its self time, ms.
  const std::pair<const char *, double *> Layers[] = {
      {"cogent.enumerate", &T.EnumerateMs},
      {"cogent.rank", &T.RankMs},
      {"cogent.emit", &T.EmitMs},
      {"cogent.fallback", &T.FallbackMs},
      {"bench.core.plan_build", &T.PlanBuildUs},
      {"bench.verify.plan", &T.VerifyPlanUs},
      {"bench.core.cost", &T.CostUs},
      {"bench.verify.cost", &T.VerifyCostUs},
      {"bench.core.occupancy", &T.OccupancyUs},
      {"bench.core.codegen", &T.CodegenUs},
      {"bench.verify.source", &T.VerifySourceUs},
      {"bench.analysis.lint", &T.LintUs},
      {"bench.analysis.model_parse", &T.ParseUs},
      {"bench.analysis.dataflow", &T.DataflowUs},
      {"bench.analysis.race_prover", &T.RaceUs},
  };
  for (size_t I = 0; I < Events.size(); ++I) {
    const support::TraceEvent &E = Events[I];
    if (E.Phase != 'X')
      continue;
    if (named(E, Root)) {
      T.GenerateWallMs += E.DurationUs / 1000.0;
      ++T.GenerateCalls;
    }
    // generate()'s wall time that no layer span covers: the root's own
    // self time plus cogent.generate's (whose children are the layers).
    if (named(E, Root) || named(E, "cogent.generate"))
      T.UnattributedMs += Self[I] / 1000.0;
    for (const auto &[Name, Total] : Layers)
      if (named(E, Name))
        *Total += std::strncmp(Name, "bench.", 6) == 0 ? Self[I]
                                                        : Self[I] / 1000.0;
  }
}

void accountCounters(const core::GenerationResult &Result, LayerTotals &T) {
  const support::CounterSnapshot &C = Result.Counters;
  T.ConfigsExamined += counterValue(C, "enumerator.examined");
  T.Survivors += counterValue(C, "enumerator.survivors");
  T.CandidatesRanked += counterValue(C, "cogent.kernels-ranked");
  T.KernelsLinted += counterValue(C, "lint.kernels-linted");
  T.RacePairs += counterValue(C, "race.pairs-checked");
  T.KernelsReturned += static_cast<double>(Result.Kernels.size());
  ++T.CountedCalls;
}

void probeRank(const ir::Contraction &TC,
               const std::vector<core::KernelConfig> &Candidates,
               const gpu::DeviceSpec &Device, unsigned ElementSize,
               LayerTotals &T) {
  std::vector<core::KernelPlan> Plans;
  Plans.reserve(Candidates.size());
  {
    support::TraceSpan Span("bench.core.plan_build");
    for (const core::KernelConfig &Config : Candidates)
      Plans.emplace_back(TC, Config);
  }
  verify::PlanVerifier Verifier(Device, ElementSize);
  {
    support::TraceSpan Span("bench.verify.plan");
    for (const core::KernelPlan &Plan : Plans)
      (void)Verifier.verifyPlan(Plan);
  }
  std::vector<core::TransactionCost> Costs;
  Costs.reserve(Plans.size());
  {
    support::TraceSpan Span("bench.core.cost");
    for (const core::KernelPlan &Plan : Plans)
      Costs.push_back(core::estimateTransactions(Plan, ElementSize,
                                                 Device.TransactionBytes));
  }
  {
    support::TraceSpan Span("bench.verify.cost");
    for (size_t I = 0; I < Plans.size(); ++I)
      (void)Verifier.verifyCost(Plans[I], Costs[I]);
  }
  {
    support::TraceSpan Span("bench.core.occupancy");
    for (const core::KernelPlan &Plan : Plans)
      (void)core::planOccupancy(Plan, Device, ElementSize);
  }
  T.RankProbeCalls += Plans.size();
}

void probeEmit(const ir::Contraction &TC,
               const core::GenerationResult &Result,
               const gpu::DeviceSpec &Device, unsigned ElementSize,
               LayerTotals &T) {
  const ir::Contraction &PlanTC = planContraction(TC, Result);
  verify::PlanVerifier Verifier(Device, ElementSize);
  core::CodeGenOptions CodeGen;
  CodeGen.ElementType = ElementSize == 8 ? "double" : "float";
  analysis::LintOptions Lint;
  Lint.ElementSize = ElementSize;
  Lint.TransactionBytes = Device.TransactionBytes;
  Lint.RegisterBudget = Device.MaxRegistersPerThread;
  for (const core::GeneratedKernel &Kernel : Result.Kernels) {
    core::KernelPlan Plan(PlanTC, Kernel.Config);
    core::GeneratedSource Source;
    {
      support::TraceSpan Span("bench.core.codegen");
      Source = core::emitCuda(Plan, CodeGen);
    }
    {
      support::TraceSpan Span("bench.verify.source");
      (void)Verifier.verifySource(Source);
    }
    {
      support::TraceSpan Span("bench.analysis.lint");
      (void)analysis::lintKernel(Plan, Source.KernelSource, Lint);
    }
    ErrorOr<analysis::KernelModel> Model = [&] {
      support::TraceSpan Span("bench.analysis.model_parse");
      return analysis::parseKernelSource(Source.KernelSource);
    }();
    if (Model) {
      ErrorOr<analysis::DataflowInfo> Flow = [&] {
        support::TraceSpan Span("bench.analysis.dataflow");
        return analysis::buildDataflow(*Model);
      }();
      if (Flow) {
        support::TraceSpan Span("bench.analysis.race_prover");
        (void)analysis::proveRaces(Plan, *Model, *Flow);
      }
    }
    T.SourceBytes += static_cast<double>(Source.KernelSource.size() +
                                         Source.DriverSource.size());
    ++T.EmitProbeKernels;
  }
}

namespace {

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

} // namespace

void addLayerMetrics(const LayerTotals &T, Report &Out) {
  double Calls = static_cast<double>(T.GenerateCalls);
  double Counted = static_cast<double>(T.CountedCalls);
  double Probes = static_cast<double>(T.RankProbeCalls);
  double Kernels = static_cast<double>(T.EmitProbeKernels);
  Out.add("core.enumerate_ms", ratio(T.EnumerateMs, Calls), "ms");
  Out.add("core.configs_examined", ratio(T.ConfigsExamined, Counted), "count");
  Out.add("core.survivors", ratio(T.Survivors, Counted), "count");
  Out.add("core.rank_ms", ratio(T.RankMs, Calls), "ms");
  Out.add("core.candidates_ranked", ratio(T.CandidatesRanked, Counted),
          "count");
  Out.add("core.plan_build_us", ratio(T.PlanBuildUs, Probes), "us");
  Out.add("verify.plan_us", ratio(T.VerifyPlanUs, Probes), "us");
  Out.add("core.cost_us", ratio(T.CostUs, Probes), "us");
  Out.add("verify.cost_us", ratio(T.VerifyCostUs, Probes), "us");
  Out.add("core.occupancy_us", ratio(T.OccupancyUs, Probes), "us");
  Out.add("core.emitted_per_ranked",
          ratio(T.KernelsReturned, T.CandidatesRanked), "ratio");
  Out.add("core.emit_ms", ratio(T.EmitMs, Calls), "ms");
  Out.add("core.codegen_us", ratio(T.CodegenUs, Kernels), "us");
  Out.add("verify.source_us", ratio(T.VerifySourceUs, Kernels), "us");
  Out.add("core.source_bytes", ratio(T.SourceBytes, Kernels), "bytes");
  Out.add("analysis.lint_us", ratio(T.LintUs, Kernels), "us");
  Out.add("analysis.model_parse_us", ratio(T.ParseUs, Kernels), "us");
  Out.add("analysis.dataflow_us", ratio(T.DataflowUs, Kernels), "us");
  Out.add("analysis.race_prover_us", ratio(T.RaceUs, Kernels), "us");
  Out.add("analysis.classic_passes_us",
          ratio(T.LintUs - T.ParseUs - T.DataflowUs - T.RaceUs, Kernels),
          "us");
  Out.add("analysis.kernels_linted", ratio(T.KernelsLinted, Counted), "count");
  Out.add("analysis.race_pairs_checked", ratio(T.RacePairs, Counted), "count");
  Out.add("trace.unattributed_share",
          ratio(T.UnattributedMs, T.GenerateWallMs), "share");
}

const std::vector<std::string> &endToEndMetricNames() {
  static const std::vector<std::string> Names = {
      "setup_s",        "throughput_per_s", "latency_p50_ms",
      "latency_p99_ms", "ok_share",         "goodput_share",
      "peak_rss_mb",    "kernel_gflops_geomean"};
  return Names;
}

const std::vector<std::string> &perLayerMetricNames() {
  static const std::vector<std::string> Names = {
      "core.enumerate_ms",
      "core.configs_examined",
      "core.survivors",
      "core.rank_ms",
      "core.candidates_ranked",
      "core.plan_build_us",
      "verify.plan_us",
      "core.cost_us",
      "verify.cost_us",
      "core.occupancy_us",
      "core.emitted_per_ranked",
      "core.emit_ms",
      "core.codegen_us",
      "verify.source_us",
      "core.source_bytes",
      "analysis.lint_us",
      "analysis.model_parse_us",
      "analysis.dataflow_us",
      "analysis.race_prover_us",
      "analysis.classic_passes_us",
      "analysis.kernels_linted",
      "analysis.race_pairs_checked",
      "service.admit_us",
      "service.queue_ms_p50",
      "service.queue_ms_p99",
      "service.hit_ms_p50",
      "service.miss_ms_p50",
      "service.miss_ms_p99",
      "service.cache_hit_share",
      "service.coalesced",
      "service.shed",
      "service.retries",
      "loadgen.lateness_ms_p99",
      "verify.traffic_disagreements",
      "trace.overhead_share",
      "trace.unattributed_share"};
  return Names;
}

void addServiceMetricsNotApplicable(Report &Out) {
  const std::pair<const char *, const char *> Service[] = {
      {"service.admit_us", "us"},         {"service.queue_ms_p50", "ms"},
      {"service.queue_ms_p99", "ms"},     {"service.hit_ms_p50", "ms"},
      {"service.miss_ms_p50", "ms"},      {"service.miss_ms_p99", "ms"},
      {"service.cache_hit_share", "share"}, {"service.coalesced", "count"},
      {"service.shed", "count"},          {"service.retries", "count"},
      {"loadgen.lateness_ms_p99", "ms"}};
  std::vector<std::string> Names;
  for (const auto &[Name, Unit] : Service) {
    Out.add(Name, 0.0, Unit);
    Names.push_back(Name);
  }
  Out.Details.strList("not_applicable", Names);
}

} // namespace perfbench

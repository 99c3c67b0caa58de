//===- core/Cogent.cpp ---------------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Cogent.h"

#include "analysis/KernelLint.h"
#include "core/KernelPlan.h"
#include "support/JsonWriter.h"
#include "verify/PlanVerifier.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <new>
#include <sstream>

using namespace cogent;
using namespace cogent::core;
using cogent::ir::Contraction;

COGENT_COUNTER(NumGenerateRuns, "cogent.generate-runs",
               "Cogent::generate invocations");
COGENT_COUNTER(NumFallbackMinimal, "cogent.fallback-minimal-tile",
               "runs that fell back to the minimal-tile configuration");
COGENT_COUNTER(NumFallbackTtgt, "cogent.fallback-ttgt",
               "runs that fell back to the TTGT baseline plan");
COGENT_COUNTER(NumSourceTruncations, "cogent.source-truncations",
               "runs whose emission was stopped by MaxSourceBytes");
COGENT_COUNTER(NumKernelsRanked, "cogent.kernels-ranked",
               "candidate kernels scored by the cost model ranking");
COGENT_COUNTER(NumEnumerationsAborted, "cogent.enumerations-aborted",
               "enumerations that died mid-search (allocation failure) and "
               "restarted on the fallback chain");
COGENT_COUNTER(NumVerifierDemotions, "cogent.verifier-demotions",
               "fallback-rung demotions caused by verification failures");
COGENT_COUNTER(NumLintRejections, "lint.rejections",
               "emitted sources rejected by the strict KernelLint gate");
COGENT_COUNTER(NumRaceRejections, "race.rejections",
               "strict-gate rejections carrying a race-prover error");

const char *cogent::core::fallbackLevelName(FallbackLevel Level) {
  switch (Level) {
  case FallbackLevel::None:
    return "none";
  case FallbackLevel::MinimalTile:
    return "minimal-tile";
  case FallbackLevel::TtgtBaseline:
    return "ttgt";
  }
  assert(false && "unknown fallback level");
  return "?";
}

std::optional<FallbackLevel>
cogent::core::fallbackLevelFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumFallbackLevels; ++I) {
    FallbackLevel Level = static_cast<FallbackLevel>(I);
    if (Name == fallbackLevelName(Level))
      return Level;
  }
  return std::nullopt;
}

/// \p Name's entry in a run's counter table; 0 when unregistered.
static uint64_t runCount(const support::CounterSnapshot &Counters,
                         const char *Name) {
  for (const support::CounterValue &C : Counters)
    if (std::strcmp(C.Name, Name) == 0)
      return C.Value;
  return 0;
}

uint64_t GenerationResult::verifierRejections() const {
  return runCount(Counters, "verifier.rejections");
}

uint64_t GenerationResult::lintRejections() const {
  return runCount(Counters, "lint.rejections");
}

uint64_t GenerationResult::raceFindings() const {
  return runCount(Counters, "race.findings");
}

uint64_t GenerationResult::raceRejections() const {
  return runCount(Counters, "race.rejections");
}

namespace {

/// Fallback level 1: a directly constructed configuration — the output FVI
/// on TBx with the largest power-of-two tile the device accepts, nothing
/// else mapped, 1x1 register tiles. Structurally valid for every
/// well-formed contraction; returns false only when even the one-thread
/// variant exceeds the device's hardware limits.
bool buildMinimalConfig(const Contraction &TC, const gpu::DeviceSpec &Device,
                        unsigned ElementSize, KernelConfig *Out) {
  char OutFvi = TC.fvi(ir::Operand::C);
  for (int64_t Tile : {int64_t(32), int64_t(16), int64_t(8), int64_t(4),
                       int64_t(2), int64_t(1)}) {
    KernelConfig Config;
    Config.XInput = TC.inputContaining(OutFvi);
    Config.TBx = {{OutFvi, std::min<int64_t>(TC.extent(OutFvi), Tile)}};
    assert(Config.validate(TC).empty() && "minimal config must validate");
    if (Config.threadsPerBlock() > Device.MaxThreadsPerBlock ||
        Config.smemBytes(ElementSize) >
            static_cast<int64_t>(Device.SharedMemPerBlock) ||
        Config.registersPerThread(ElementSize) > Device.MaxRegistersPerThread)
      continue;
    *Out = std::move(Config);
    return true;
  }
  return false;
}

/// Fallback level 2: the TTGT evaluation plan. The contraction is
/// matricized exactly as baselines::planTtgt does — externals of A fuse
/// into M, externals of B into N, internals into K — yielding the GEMM
/// contraction "ab-ac-cb" (a=M, b=N, c=K; extent-1 dimensions keep the
/// spec well-formed when a side is empty). The kernel emitted for it is a
/// reference schedule; a production runtime would hand this plan to
/// transpose + library GEMM, which is why no device hardware check is
/// applied here: this rung must never fail.
Contraction buildTtgtGemm(const Contraction &TC) {
  int64_t M = 1, N = 1, K = 1;
  for (char Name : TC.allIndices()) {
    switch (TC.kindOf(Name)) {
    case ir::IndexKind::ExternalA:
      M *= TC.extent(Name);
      break;
    case ir::IndexKind::ExternalB:
      N *= TC.extent(Name);
      break;
    case ir::IndexKind::Internal:
      K *= TC.extent(Name);
      break;
    }
  }
  ErrorOr<Contraction> Gemm =
      Contraction::parse("ab-ac-cb", {{'a', M}, {'b', N}, {'c', K}});
  assert(Gemm.hasValue() && "matricized GEMM of a valid contraction must "
                            "be valid");
  return *Gemm;
}

} // namespace

std::vector<RankedCandidate> cogent::core::rankCandidates(
    const Contraction &TC, const CandidateSet &Candidates,
    const verify::PlanVerifier &Verifier, size_t TopK,
    const std::function<void(const Error &)> &OnReject) {
  NumKernelsRanked += Candidates.size();
  const gpu::DeviceSpec &Device = Verifier.device();
  unsigned ElementSize = Verifier.elementSize();

  // One candidate's rank key. Index names its triple in Candidates, so
  // ordering moves small PODs, never a KernelConfig; as the last tie-break
  // it makes the order reproduce a stable sort on the first three fields.
  // A block that cannot be resident (BlocksPerSM == 0) needs no key of its
  // own: it fails verifyPlan's resource checks, so the walk below skips it.
  struct RankKey {
    double Total;
    double Occupancy;
    int64_t Threads;
    size_t Index;
    TransactionCost Cost;
    gpu::OccupancyResult Occ;
  };
  // A failed cost-sanity check re-estimates: a transiently lying cost model
  // costs retries, not the candidate.
  constexpr unsigned CostRetries = 4;
  std::vector<RankKey> Keys;
  Keys.reserve(Candidates.size());
  for (size_t I = 0; I < Candidates.size(); ++I) {
    TileTable Tiles = Candidates.tileTable(Candidates.Triples[I]);
    TransactionCost Cost;
    bool CostOk = false;
    for (unsigned Attempt = 0; Attempt < CostRetries && !CostOk; ++Attempt) {
      Cost = estimateTransactions(TC, Tiles, ElementSize,
                                  Device.TransactionBytes);
      ErrorOr<void> CostCheck = Verifier.verifyCost(TC, Cost);
      CostOk = CostCheck.hasValue();
      if (!CostOk)
        OnReject(CostCheck.error());
    }
    if (!CostOk)
      continue;
    gpu::OccupancyResult Occ = planOccupancy(Tiles.Sizes, Device, ElementSize);
    Keys.push_back({Cost.total(), Occ.Occupancy,
                    Tiles.Sizes.threadsPerBlock(), I, Cost, Occ});
  }
  // Ranks after: the heap below keeps the best key on top.
  auto RanksAfter = [](const RankKey &X, const RankKey &Y) {
    if (X.Total != Y.Total)
      return X.Total > Y.Total;
    if (X.Occupancy != Y.Occupancy)
      return X.Occupancy < Y.Occupancy;
    if (X.Threads != Y.Threads)
      return X.Threads < Y.Threads;
    return X.Index > Y.Index;
  };

  // Configs and plans are built and verified lazily, in rank order: a
  // rejected head demotes to the next key, and the walk stops once TopK
  // passed. The keys form a total order, so popping a heap visits them
  // exactly as sorting would, at O(log n) per visited key instead of a
  // full sort.
  std::make_heap(Keys.begin(), Keys.end(), RanksAfter);
  std::vector<RankedCandidate> Ranking;
  while (!Keys.empty() && Ranking.size() < TopK) {
    std::pop_heap(Keys.begin(), Keys.end(), RanksAfter);
    RankKey Key = Keys.back();
    Keys.pop_back();
    KernelConfig Config = Candidates.config(Candidates.Triples[Key.Index]);
    if (ErrorOr<void> PlanCheck = Verifier.verifyPlan(KernelPlan(TC, Config));
        !PlanCheck) {
      OnReject(PlanCheck.error());
      continue;
    }
    Ranking.push_back({std::move(Config), Key.Cost, Key.Occ});
  }
  return Ranking;
}

ErrorOr<GenerationResult> Cogent::generate(const Contraction &TC,
                                           CogentOptions Options) const {
  auto Start = std::chrono::steady_clock::now();
  support::ScopedTraceActivation Activation(Options.Trace);

  // Never trust the caller's device description: a hostile or corrupted
  // spec is a typed error here, not nonsense plans downstream.
  if (ErrorOr<void> DeviceCheck = Device.validate(); !DeviceCheck)
    return DeviceCheck.takeError().withContext("generating " + TC.toString());

  // Per-run counter attribution: the scope only sees this thread's
  // increments, so concurrent generate() calls never bleed into each
  // other's GenerationResult::Counters.
  support::CounterScope RunCounters;
  ++NumGenerateRuns;
  support::TraceSpan GenerateSpan("cogent.generate");
  GenerateSpan.arg("contraction", TC.toStringWithExtents());
  GenerateSpan.arg("device", Device.Name);

  // Install this run's fault injector, if chaos was requested. With no
  // sites enabled the pipeline's chaos hooks stay disarmed.
  std::optional<support::FaultInjector> Injector;
  if (Options.Chaos.enabled())
    Injector.emplace(Options.Chaos);
  support::ScopedChaosActivation ChaosActivation(Injector ? &*Injector
                                                          : nullptr);

  Options.Enumeration.ElementSize = Options.ElementSize;
  Options.Enumeration.MaxConfigs = Options.Budget.MaxConfigs;
  Options.Enumeration.DeadlineMs = Options.Budget.DeadlineMs;
  GenerationResult Result;
  CandidateSet Candidates;
  // Degraded entry (CogentOptions::StartRung): a caller out of deadline
  // budget skips the expensive search and starts the chain at a cheap
  // rung directly — enumeration never runs, so its cost is exactly zero.
  if (Options.StartRung == FallbackLevel::None) {
    support::TraceSpan Span("cogent.enumerate");
    try {
      Enumerator Enum(TC, Device, Options.Enumeration);
      Candidates = Enum.search(&Result.Stats);
    } catch (const std::bad_alloc &) {
      // Allocation failure mid-search (real or injected): discard the
      // partial search and continue on the fallback chain — the no-kernel
      // guarantee outranks the lost candidates.
      Candidates = CandidateSet();
      Result.EnumerationAborted = true;
      ++NumEnumerationsAborted;
      support::traceInstant("cogent.enumeration-aborted");
    }
    Span.arg("survivors", std::to_string(Candidates.size()));
    Result.Phases.EnumerateMs = Span.elapsedMs();
  } else {
    support::traceInstant(
        "cogent.degraded-start",
        {{"rung", fallbackLevelName(Options.StartRung)}});
  }

  // Chaos site: the working device limits shrink *after* enumeration
  // pruned against the original ones — a driver reporting different
  // numbers than the search assumed. Survivors that no longer fit must now
  // be caught by the verifier and demoted, not emitted.
  gpu::DeviceSpec Run = Device;
  if (support::chaosShouldFire(support::ChaosSite::DeviceMutate)) {
    Run.Name += "+chaos";
    Run.SharedMemPerBlock = std::max(1024u, Run.SharedMemPerBlock / 2);
    Run.SharedMemPerSM = std::max(Run.SharedMemPerBlock,
                                  Run.SharedMemPerSM / 2);
    Run.MaxThreadsPerBlock = std::max(32u, Run.MaxThreadsPerBlock / 2);
    Run.MaxRegistersPerThread = std::max(40u, Run.MaxRegistersPerThread / 2);
    Result.DeviceMutated = true;
    assert(Run.validate().hasValue() && "chaos mutation must stay valid");
  }

  const verify::PlanVerifier Verifier(Run, Options.ElementSize);
  auto NoteRejection = [&](const Error &E) {
    if (Result.VerifierNotes.size() < 8)
      Result.VerifierNotes.push_back(E.render());
    support::traceInstant("cogent.verifier-reject", {{"error", E.message()}});
  };

  // Rank on the cost model; only the accepted head gets a config and a
  // verified plan.
  auto rankVerified = [&](const CandidateSet &Set,
                          const Contraction &RankTC) {
    support::TraceSpan Span("cogent.rank");
    Span.arg("candidates", std::to_string(Set.size()));
    std::vector<RankedCandidate> Ranking =
        rankCandidates(RankTC, Set, Verifier,
                       std::max<size_t>(Options.TopK, 1), NoteRejection);
    Result.Phases.RankMs += Span.elapsedMs();
    return Ranking;
  };

  gpu::Calibration Calib = gpu::makeCalibration(Run);
  CodeGenOptions CGOptions;
  CGOptions.ElementType = Options.ElementSize == 8 ? "double" : "float";

  // Post-emit lint gate, symmetric with the verifier: sync the run's
  // element and transaction sizes into the analysis.
  analysis::LintOptions LintOpts = Options.Lint;
  LintOpts.ElementSize = Options.ElementSize;
  LintOpts.TransactionBytes = Run.TransactionBytes;
  LintOpts.RegisterBudget = Run.MaxRegistersPerThread;
  auto NoteLintRejection = [&](const analysis::LintReport &Report) {
    ++NumLintRejections;
    if (Result.LintNotes.size() < 8 && !Report.Findings.empty())
      Result.LintNotes.push_back(Report.Findings.front().render());
    support::traceInstant(
        "cogent.lint-reject",
        {{"findings", std::to_string(Report.Findings.size())}});
  };

  // Emit the top-K verified plans. Every emission is source-verified; a
  // failed emission (e.g. injected truncation) is retried before the
  // candidate is given up on. Returns true when at least one kernel was
  // materialized — the rung succeeded.
  auto emitVerified = [&](std::vector<RankedCandidate> &Ranking,
                          const Contraction &EmitTC) {
    support::TraceSpan Span("cogent.emit");
    constexpr unsigned EmitRetries = 6;
    size_t Keep = std::min(std::max<size_t>(Options.TopK, 1), Ranking.size());
    uint64_t SourceBytes = 0;
    for (size_t I = 0; I < Keep; ++I) {
      // The byte budget truncates the tail, never the head: one kernel is
      // always materialized.
      if (!Result.Kernels.empty() && Options.Budget.MaxSourceBytes != 0 &&
          SourceBytes >= Options.Budget.MaxSourceBytes) {
        Result.SourceTruncated = true;
        ++NumSourceTruncations;
        support::traceInstant(
            "cogent.budget-trip",
            {{"budget", "max-source-bytes"},
             {"emitted", std::to_string(Result.Kernels.size())},
             {"bytes", std::to_string(SourceBytes)}});
        break;
      }
      GeneratedKernel Kernel;
      Kernel.Config = std::move(Ranking[I].Config);
      Kernel.Cost = Ranking[I].Cost;
      Kernel.Occupancy = Ranking[I].Occupancy;
      KernelPlan Plan(EmitTC, Kernel.Config);
      Kernel.PlanPressure = planRegisterPressure(Plan, Options.ElementSize);
      bool SourceOk = false;
      std::vector<analysis::LintFinding> Accepted;
      for (unsigned Attempt = 0; Attempt < EmitRetries && !SourceOk;
           ++Attempt) {
        Kernel.Source = emitCuda(Plan, CGOptions);
        ErrorOr<void> SourceCheck = Verifier.verifySource(Kernel.Source);
        SourceOk = SourceCheck.hasValue();
        if (!SourceOk) {
          NoteRejection(SourceCheck.error());
          continue;
        }
        if (LintOpts.Mode == analysis::LintMode::Off)
          continue;
        analysis::LintReport Report =
            analysis::lintKernel(Plan, Kernel.Source.KernelSource, LintOpts);
        uint64_t RaceErrors = 0;
        for (const analysis::LintFinding &F : Report.Findings)
          if (analysis::isRacePass(F.Pass) &&
              F.Severity == analysis::LintSeverity::Error)
            ++RaceErrors;
        if (LintOpts.Mode == analysis::LintMode::Strict &&
            Report.errorCount() > 0) {
          // A lint rejection re-emits like a verifier rejection; when the
          // retries run out the rung demotes down the fallback chain.
          SourceOk = false;
          NoteLintRejection(Report);
          if (RaceErrors > 0) {
            ++NumRaceRejections;
            support::traceInstant(
                "cogent.race-reject",
                {{"findings", std::to_string(RaceErrors)}});
          }
          continue;
        }
        Kernel.SourcePressure = Report.SourcePressure;
        Accepted = std::move(Report.Findings);
      }
      if (!SourceOk)
        continue;
      Result.LintFindings.insert(Result.LintFindings.end(),
                                 Accepted.begin(), Accepted.end());
      Kernel.Predicted = gpu::estimateKernelTime(
          Run, Calib, makeKernelProfile(Plan, Run, Options.ElementSize));
      SourceBytes += Kernel.Source.KernelSource.size() +
                     Kernel.Source.DriverSource.size();
      Result.Kernels.push_back(std::move(Kernel));
    }
    Span.arg("kernels", std::to_string(Result.Kernels.size()));
    Span.arg("bytes", std::to_string(SourceBytes));
    Result.Phases.EmitMs += Span.elapsedMs();
    return !Result.Kernels.empty();
  };

  // The guaranteed-fallback chain, each rung gated by the verifier:
  // pruned search -> minimal tiles -> TTGT. A rung that produces no
  // verified, emitted kernel demotes to the next.
  bool Done = false;
  if (!Candidates.empty()) {
    std::vector<RankedCandidate> Ranking = rankVerified(Candidates, TC);
    if (!Ranking.empty())
      Done = emitVerified(Ranking, TC);
    if (!Done)
      ++NumVerifierDemotions;
  }

  if (!Done && Options.StartRung != FallbackLevel::TtgtBaseline) {
    support::TraceSpan Span("cogent.fallback");
    KernelConfig Minimal;
    if (buildMinimalConfig(TC, Run, Options.ElementSize, &Minimal)) {
      Result.Fallback = FallbackLevel::MinimalTile;
      ++NumFallbackMinimal;
      support::traceInstant(
          "cogent.fallback-rung",
          {{"level", fallbackLevelName(FallbackLevel::MinimalTile)}});
      std::vector<RankedCandidate> Ranking =
          rankVerified(CandidateSet::single(TC, Minimal), TC);
      if (!Ranking.empty())
        Done = emitVerified(Ranking, TC);
      if (!Done)
        ++NumVerifierDemotions;
    }
    Result.Phases.FallbackMs += Span.elapsedMs();
  }

  if (!Done) {
    support::TraceSpan Span("cogent.fallback");
    Result.Fallback = FallbackLevel::TtgtBaseline;
    ++NumFallbackTtgt;
    Result.FallbackContraction = buildTtgtGemm(TC);
    const Contraction &Gemm = *Result.FallbackContraction;
    support::traceInstant(
        "cogent.fallback-rung",
        {{"level", fallbackLevelName(FallbackLevel::TtgtBaseline)}});
    char GemmFvi = Gemm.fvi(ir::Operand::C);
    KernelConfig GemmConfig;
    GemmConfig.XInput = Gemm.inputContaining(GemmFvi);
    GemmConfig.TBx = {{GemmFvi, 1}};
    assert(GemmConfig.validate(Gemm).empty());
    std::vector<RankedCandidate> Ranking =
        rankVerified(CandidateSet::single(Gemm, GemmConfig), Gemm);
    if (!Ranking.empty())
      Done = emitVerified(Ranking, Gemm);
    Result.Phases.FallbackMs += Span.elapsedMs();
  }

  Result.Counters = RunCounters.take();
  if (!Done)
    // Even the TTGT rung could not produce a verified kernel — an
    // unrescued verification failure (e.g. a device whose limits are valid
    // but below any kernel's footprint).
    return Error(ErrorCode::VerificationFailed,
                 "no kernel for contraction " + TC.toString() +
                     " passed verification on device " + Run.Name + " (" +
                     std::to_string(Result.verifierRejections()) +
                     " rejections)");
  assert(!Result.Kernels.empty() && "generation must materialize a kernel");

  auto End = std::chrono::steady_clock::now();
  Result.ElapsedMs =
      std::chrono::duration<double, std::milli>(End - Start).count();
  return Result;
}

std::string cogent::core::explainKernel(const Contraction &TC,
                                        const GeneratedKernel &Kernel,
                                        const gpu::DeviceSpec &Device,
                                        unsigned ElementSize) {
  const KernelConfig &Config = Kernel.Config;
  KernelPlan Plan(TC, Config);
  std::ostringstream OS;

  OS << "contraction " << TC.toStringWithExtents() << " on " << Device.Name
     << "\n";
  OS << "mapping     " << Config.toString() << "\n\n";

  OS << "  idx  kind       reuses  mapped-to  tile  extent\n";
  auto dimensionOf = [&](char Name) -> std::string {
    for (const auto &[List, Label] :
         std::initializer_list<std::pair<const std::vector<IndexTile> &,
                                         const char *>>{
             {Config.TBx, "TBx"},
             {Config.TBy, "TBy"},
             {Config.RegX, "REGx"},
             {Config.RegY, "REGy"},
             {Config.TBk, "TBk"}})
      for (const IndexTile &T : List)
        if (T.Name == Name)
          return Label;
    return TC.isExternal(Name) ? "grid" : "serial";
  };
  for (char Name : TC.allIndices()) {
    const char *Kind = TC.isInternal(Name) ? "internal" : "external";
    OS << "  " << Name << "    " << Kind
       << (TC.isInternal(Name) ? "   " : "   ") << ir::operandName(
           TC.reuseTensor(Name))
       << "       " << dimensionOf(Name);
    OS << std::string(11 - std::min<size_t>(10, dimensionOf(Name).size()),
                      ' ');
    OS << Config.tileOf(Name) << "     " << TC.extent(Name) << "\n";
  }

  OS << "\nblock       " << Plan.tbX() << " x " << Plan.tbY()
     << " threads, register tile " << Plan.regX() << " x " << Plan.regY()
     << ", TBk " << Plan.tbk() << "\n";
  OS << "grid        " << Plan.numBlocks() << " blocks, " << Plan.numSteps()
     << " steps each\n";
  OS << "smem        " << Config.smemBytes(ElementSize)
     << " bytes/block; ~" << Config.registersPerThread(ElementSize)
     << " regs/thread\n";
  OS << "occupancy   " << 100.0 * Kernel.Occupancy.Occupancy << "% ("
     << Kernel.Occupancy.BlocksPerSM << " blocks/SM, limited by "
     << Kernel.Occupancy.Limiter << ")\n";
  OS << "traffic     " << Kernel.Cost.LoadA << " (A) + " << Kernel.Cost.LoadB
     << " (B) + " << Kernel.Cost.StoreC << " (C) = " << Kernel.Cost.total()
     << " transactions\n";
  OS << "roofline    " << Kernel.Predicted.Gflops << " GFLOPS ("
     << Kernel.Predicted.Bound << " bound), " << Kernel.Predicted.TimeMs
     << " ms\n";
  return OS.str();
}

ErrorOr<GenerationResult>
Cogent::generate(const std::string &Spec,
                 const std::vector<std::pair<char, int64_t>> &Extents,
                 CogentOptions Options) const {
  support::ScopedTraceActivation Activation(Options.Trace);
  double ParseMs = 0.0;
  ErrorOr<Contraction> TC = [&]() {
    support::TraceSpan Span("cogent.parse");
    Span.arg("spec", Spec);
    ErrorOr<Contraction> Parsed = Contraction::parse(Spec, Extents);
    ParseMs = Span.elapsedMs();
    return Parsed;
  }();
  if (!TC)
    return TC.takeError().withContext("parsing contraction \"" + Spec + "\"");
  ErrorOr<GenerationResult> Result = generate(*TC, std::move(Options));
  if (Result)
    Result->Phases.ParseMs = ParseMs;
  return Result;
}

std::string cogent::core::renderMetricsJson(const Contraction &TC,
                                            const GenerationResult &Result,
                                            const gpu::DeviceSpec &Device) {
  support::JsonWriter W;
  W.beginObject();
  W.member("contraction", TC.toString());
  W.key("extents");
  W.beginObject();
  for (char Name : TC.allIndices())
    W.member(std::string(1, Name), static_cast<uint64_t>(TC.extent(Name)));
  W.endObject();
  W.member("device", Device.Name);
  W.member("elapsed_ms", Result.ElapsedMs);

  W.key("phases");
  W.beginObject();
  W.member("parse_ms", Result.Phases.ParseMs);
  W.member("enumerate_ms", Result.Phases.EnumerateMs);
  W.member("fallback_ms", Result.Phases.FallbackMs);
  W.member("rank_ms", Result.Phases.RankMs);
  W.member("emit_ms", Result.Phases.EmitMs);
  W.endObject();

  W.key("stats");
  W.beginObject();
  W.member("raw_configs", Result.Stats.RawConfigs);
  W.member("examined", Result.Stats.Examined);
  W.member("invalid", Result.Stats.InvalidConfigs);
  W.member("hardware_pruned", Result.Stats.HardwarePruned);
  W.member("performance_pruned", Result.Stats.PerformancePruned);
  W.member("survivors", Result.Stats.Survivors);
  W.member("pruned_fraction", Result.Stats.prunedFraction());
  W.member("status", searchStatusName(Result.Stats.Status));
  W.endObject();

  W.member("fallback", fallbackLevelName(Result.Fallback));
  W.member("source_truncated", Result.SourceTruncated);
  W.member("verifier_rejections", Result.verifierRejections());
  W.member("enumeration_aborted", Result.EnumerationAborted);
  W.member("device_mutated", Result.DeviceMutated);
  W.member("lint_rejections", Result.lintRejections());
  W.member("race_findings", Result.raceFindings());
  W.member("race_rejections", Result.raceRejections());

  W.key("lint_findings");
  W.beginArray();
  for (const analysis::LintFinding &Finding : Result.LintFindings) {
    W.beginObject();
    W.member("pass", analysis::lintPassName(Finding.Pass));
    W.member("severity", analysis::lintSeverityName(Finding.Severity));
    W.member("line", static_cast<uint64_t>(Finding.Line));
    W.member("message", Finding.Message);
    W.endObject();
  }
  W.endArray();

  W.key("kernels");
  W.beginArray();
  for (const GeneratedKernel &Kernel : Result.Kernels) {
    W.beginObject();
    W.member("config", Kernel.Config.toString());
    W.member("modeled_transactions", Kernel.Cost.total());
    W.member("transactions_a", Kernel.Cost.LoadA);
    W.member("transactions_b", Kernel.Cost.LoadB);
    W.member("transactions_c", Kernel.Cost.StoreC);
    W.member("occupancy", Kernel.Occupancy.Occupancy);
    W.member("occupancy_limiter", Kernel.Occupancy.Limiter);
    W.member("register_pressure_plan",
             static_cast<uint64_t>(Kernel.PlanPressure));
    W.member("register_pressure_source",
             static_cast<uint64_t>(Kernel.SourcePressure));
    W.member("predicted_gflops", Kernel.Predicted.Gflops);
    W.member("predicted_time_ms", Kernel.Predicted.TimeMs);
    W.member("bound", Kernel.Predicted.Bound);
    W.member("source_bytes",
             static_cast<uint64_t>(Kernel.Source.KernelSource.size() +
                                   Kernel.Source.DriverSource.size()));
    W.endObject();
  }
  W.endArray();

  W.key("counters");
  support::writeCountersJson(W, Result.Counters);
  W.endObject();
  return W.take();
}

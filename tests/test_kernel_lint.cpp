//===- tests/test_kernel_lint.cpp - KernelLint + mutation corpus ----------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KernelLint contract, proven from both sides:
///
///   - every clean emission lints clean in strict mode (the whole TCCG seed
///     suite on both device models), so the strict pipeline gate never
///     rejects a healthy kernel;
///   - every SourceMutator corruption of a real kernel is caught by the
///     pass designed for it — the kill matrix — with at least three
///     distinct kills per pass, so a pass that silently stops firing fails
///     the suite rather than degrading into a no-op;
///   - the Coalescing pass's quantitative half (predictTransactions)
///     matches gpu::simulateKernel transaction-for-transaction on the seed
///     suite, not merely approximately.
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"
#include "analysis/SourceMutator.h"
#include "core/CodeGen.h"
#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "gpu/KernelSimulator.h"
#include "suite/TccgSuite.h"
#include "support/JsonValue.h"
#include "support/Random.h"
#include "tensor/Reference.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

using namespace cogent;
using analysis::LintFinding;
using analysis::LintMode;
using analysis::LintOptions;
using analysis::LintPass;
using analysis::LintReport;
using analysis::MutationKind;
using ir::Contraction;
using ir::Operand;

namespace {

/// The corpus kernel: a contraction whose winning V100 mapping uses both
/// register-tile dimensions (REGX=2, REGY=6), so every MutationKind —
/// including ShrinkRegTile, which is a semantic no-op when REGY == 1 —
/// changes evaluated behavior, not just text.
struct Corpus {
  Contraction TC;
  core::KernelPlan Plan;
  std::string Source;
};

Corpus makeCorpus() {
  Contraction TC = *Contraction::parseUniform("abcd-aebf-dfce", 24);
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  EXPECT_TRUE(Result.hasValue());
  core::KernelConfig Config = Result->best().Config;
  // The kill matrix needs a two-dimensional register tile; if the search
  // ever stops picking one here, the corpus must move to a spec that does.
  EXPECT_GT(Config.regXSize(), 1) << Config.toString();
  EXPECT_GT(Config.regYSize(), 1) << Config.toString();
  core::KernelPlan Plan(TC, Config);
  return Corpus{TC, Plan, core::emitCuda(Plan).KernelSource};
}

/// Expected primary kill for each MutationKind (the pass the corruption
/// was designed to trip; other passes may fire too).
const std::vector<std::pair<MutationKind, LintPass>> &killMatrix() {
  static const std::vector<std::pair<MutationKind, LintPass>> Matrix = {
      {MutationKind::DropFirstBarrier, LintPass::RaceFreedom},
      {MutationKind::DropSecondBarrier, LintPass::RaceFreedom},
      {MutationKind::DivergentBarrier, LintPass::BarrierUniformity},
      {MutationKind::DivergentBarrierThread, LintPass::BarrierUniformity},
      {MutationKind::SkewSmemReadStride, LintPass::BankConflict},
      {MutationKind::SkewSmemWriteStride, LintPass::BankConflict},
      {MutationKind::DropSmemTerm, LintPass::BankConflict},
      {MutationKind::SkewGmemStride, LintPass::Coalescing},
      {MutationKind::SwapGmemStrideVar, LintPass::Coalescing},
      {MutationKind::WrongBaseVar, LintPass::Coalescing},
      {MutationKind::SkewStoreStride, LintPass::Coalescing},
      {MutationKind::DropLoadGuard, LintPass::BoundsCheck},
      {MutationKind::WidenDecodeModulus, LintPass::BoundsCheck},
      {MutationKind::DropStoreGuard, LintPass::BoundsCheck},
      {MutationKind::ShrinkSmemDecl, LintPass::ResourceDecl},
      {MutationKind::SkewDefineRegX, LintPass::ResourceDecl},
      {MutationKind::SkewDefineNthreads, LintPass::ResourceDecl},
      {MutationKind::ShrinkRegTile, LintPass::ResourceDecl},
      {MutationKind::DuplicateFirstBarrier, LintPass::RedundantBarrier},
      {MutationKind::DuplicateSecondBarrier, LintPass::RedundantBarrier},
      {MutationKind::InjectStoreBarrier, LintPass::RedundantBarrier},
      {MutationKind::InjectUnusedDecl, LintPass::DeadStore},
      {MutationKind::InjectDeadStore, LintPass::DeadStore},
      {MutationKind::ShadowDecodeResult, LintPass::DeadStore},
      {MutationKind::InflateRegTileC, LintPass::RegisterPressure},
      {MutationKind::InflateRegTileA, LintPass::RegisterPressure},
      {MutationKind::InflateRegTileB, LintPass::RegisterPressure},
      {MutationKind::RetargetComputeReadA, LintPass::SmemLifetime},
      {MutationKind::RetargetComputeReadB, LintPass::SmemLifetime},
      {MutationKind::RetargetStagingStore, LintPass::SmemLifetime},
      {MutationKind::TaintBlockBase, LintPass::Uniformity},
      {MutationKind::TaintStepBase, LintPass::Uniformity},
      {MutationKind::TaintStepCount, LintPass::Uniformity},
      {MutationKind::UniformizeSliceInit, LintPass::RaceFreedom},
      {MutationKind::CollapseSmemWriteStride, LintPass::RaceFreedom},
      {MutationKind::DropStoreCoordinate, LintPass::RaceFreedom},
      {MutationKind::GuardBarrierOddTid, LintPass::BarrierUniformity},
      {MutationKind::GuardBarrierHalfTile, LintPass::BarrierUniformity},
      {MutationKind::DivergeStepLoop, LintPass::BarrierUniformity},
  };
  return Matrix;
}

bool hasErrorFromPass(const LintReport &Report, LintPass Pass) {
  for (const LintFinding &F : Report.Findings)
    if (F.Pass == Pass && F.Severity == analysis::LintSeverity::Error)
      return true;
  return false;
}

std::string renderAll(const LintReport &Report) {
  std::string Out;
  for (const LintFinding &F : Report.Findings)
    Out += F.render() + "\n";
  return Out.empty() ? "<no findings>" : Out;
}

TEST(KernelLint, CorpusKernelLintsClean) {
  Corpus C = makeCorpus();
  LintReport Report = analysis::lintKernel(C.Plan, C.Source);
  EXPECT_TRUE(Report.clean()) << renderAll(Report);
}

TEST(KernelLint, MutationCorpusKillMatrix) {
  Corpus C = makeCorpus();
  ASSERT_EQ(killMatrix().size(), analysis::NumMutationKinds);

  std::map<LintPass, unsigned> KillsPerPass;
  for (const auto &[Kind, ExpectedPass] : killMatrix()) {
    std::string Mutated = analysis::applyMutation(C.Source, Kind);
    ASSERT_NE(Mutated, C.Source)
        << analysis::mutationKindName(Kind)
        << ": mutation pattern absent from the corpus kernel";
    LintReport Report = analysis::lintKernel(C.Plan, Mutated);
    EXPECT_GT(Report.errorCount(), 0u)
        << analysis::mutationKindName(Kind) << " survived lint";
    EXPECT_TRUE(hasErrorFromPass(Report, ExpectedPass))
        << analysis::mutationKindName(Kind) << " expected a "
        << analysis::lintPassName(ExpectedPass) << " error, got:\n"
        << renderAll(Report);
    if (hasErrorFromPass(Report, ExpectedPass))
      ++KillsPerPass[ExpectedPass];
  }

  // Each semantic pass must have at least three distinct kills, so one
  // broken transform cannot mask a pass that stopped firing.
  for (LintPass Pass :
       {LintPass::BankConflict, LintPass::Coalescing, LintPass::BoundsCheck,
        LintPass::ResourceDecl, LintPass::RegisterPressure,
        LintPass::RedundantBarrier, LintPass::DeadStore,
        LintPass::SmemLifetime, LintPass::Uniformity, LintPass::RaceFreedom,
        LintPass::BarrierUniformity})
    EXPECT_GE(KillsPerPass[Pass], 3u) << analysis::lintPassName(Pass);
}

TEST(KernelLint, TruncationIsAStructureError) {
  Corpus C = makeCorpus();
  std::string Truncated = C.Source.substr(0, C.Source.size() / 2);
  LintReport Report = analysis::lintKernel(C.Plan, Truncated);
  EXPECT_TRUE(hasErrorFromPass(Report, LintPass::Structure))
      << renderAll(Report);
}

TEST(KernelLint, OffModeSkipsEvenMutatedSources) {
  Corpus C = makeCorpus();
  std::string Mutated =
      analysis::applyMutation(C.Source, MutationKind::DropFirstBarrier);
  ASSERT_NE(Mutated, C.Source);
  LintOptions Off;
  Off.Mode = LintMode::Off;
  EXPECT_TRUE(analysis::lintKernel(C.Plan, Mutated, Off).clean());
}

TEST(KernelLint, WarnModeRecordsWithoutRejecting) {
  // In Warn mode the pipeline must never demote: a healthy run reports
  // zero rejections and zero findings, and the result is still ranked.
  Contraction TC = *Contraction::parseUniform("ab-ac-cb", 32);
  core::CogentOptions Options;
  Options.Lint.Mode = LintMode::Warn;
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC, Options);
  ASSERT_TRUE(Result.hasValue());
  EXPECT_EQ(Result->lintRejections(), 0u);
  EXPECT_TRUE(Result->LintFindings.empty());
}

TEST(KernelLint, SeedSuiteLintsCleanStrictOnBothDevices) {
  // The clean-kernel guarantee at pipeline level: generating every TCCG
  // entry with the strict gate live (the default) must reject nothing —
  // findings here would mean the analyzer flags layout the emitter
  // legitimately produces.
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      ErrorOr<core::GenerationResult> Result =
          Generator.generate(Entry.contraction());
      ASSERT_TRUE(Result.hasValue()) << Entry.Name << " on " << Device.Name;
      EXPECT_EQ(Result->lintRejections(), 0u)
          << Entry.Name << " on " << Device.Name;
      EXPECT_TRUE(Result->LintFindings.empty())
          << Entry.Name << " on " << Device.Name << ":\n"
          << renderAll(LintReport{Result->LintFindings});
    }
  }
}

TEST(KernelLint, PredictedTransactionsMatchSimulatorSpotCheck) {
  // One-entry fast diff of predictTransactions against gpu::simulateKernel;
  // the full 48-entry sweep lives in test_lint_traffic (slow lane).
  core::Cogent Generator(gpu::makeV100());
  const suite::SuiteEntry &Entry = suite::tccgSuite().front();
  Contraction TC = Entry.contraction();
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue()) << Entry.Name;

  std::vector<std::pair<char, int64_t>> Extents;
  for (char Name : TC.allIndices())
    Extents.emplace_back(Name, std::min<int64_t>(TC.extent(Name), 8));
  ErrorOr<Contraction> Small = Contraction::parse(TC.toString(), Extents);
  ASSERT_TRUE(Small.hasValue()) << Entry.Name;
  core::KernelConfig Clamped = Result->best().Config.clampedTo(*Small);
  core::KernelPlan Plan(*Small, Clamped);
  std::string Source = core::emitCuda(Plan).KernelSource;

  ErrorOr<analysis::TrafficPrediction> Predicted =
      analysis::predictTransactions(Plan, Source);
  ASSERT_TRUE(Predicted.hasValue())
      << Entry.Name << ": " << Predicted.errorMessage();

  Rng Gen(0xbe7c + static_cast<uint64_t>(Entry.Id));
  tensor::Tensor<double> A = tensor::makeOperand<double>(*Small, Operand::A);
  tensor::Tensor<double> B = tensor::makeOperand<double>(*Small, Operand::B);
  A.fillRandom(Gen);
  B.fillRandom(Gen);
  tensor::Tensor<double> C = tensor::makeOperand<double>(*Small, Operand::C);
  gpu::SimResult Sim = gpu::simulateKernel(Plan, C, A, B);

  EXPECT_EQ(Predicted->TransactionsA, Sim.TransactionsA) << Entry.Name;
  EXPECT_EQ(Predicted->TransactionsB, Sim.TransactionsB) << Entry.Name;
  EXPECT_EQ(Predicted->TransactionsC, Sim.TransactionsC) << Entry.Name;
}

TEST(KernelLint, DoubleBufferedSourceIsATypedPredictionError) {
  Corpus C = makeCorpus();
  core::CodeGenOptions Options;
  Options.DoubleBuffer = true;
  std::string Source = core::emitCuda(C.Plan, Options).KernelSource;
  ErrorOr<analysis::TrafficPrediction> Predicted =
      analysis::predictTransactions(C.Plan, Source);
  ASSERT_FALSE(Predicted.hasValue());
  EXPECT_EQ(Predicted.errorCode(), ErrorCode::VerificationFailed);
  EXPECT_FALSE(Predicted.errorMessage().empty());
}

TEST(KernelLint, StrictGateKeepsMetricsJsonWellFormed) {
  // Findings land verbatim in the metrics JSON; messages with quotes,
  // backslashes and newlines must survive serialization.
  Contraction TC = *Contraction::parseUniform("ab-ac-cb", 32);
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue());

  LintFinding Hostile;
  Hostile.Pass = LintPass::BankConflict;
  Hostile.Severity = analysis::LintSeverity::Warning;
  Hostile.Line = 12;
  Hostile.Message = "stride \"s_A\" \\ mismatch\nsecond line";
  Result->LintFindings.push_back(Hostile);
  for (support::CounterValue &C : Result->Counters)
    if (std::string(C.Name) == "lint.rejections")
      C.Value = 2;

  std::string Json =
      core::renderMetricsJson(TC, *Result, gpu::makeV100());
  std::string Err;
  EXPECT_TRUE(support::validateJson(Json, &Err)) << Err;
  EXPECT_NE(Json.find("\"lint_findings\""), std::string::npos);
  EXPECT_NE(Json.find("\"lint_rejections\":2"), std::string::npos);
  EXPECT_NE(Json.find("bank-conflict"), std::string::npos);
}

TEST(KernelLint, NameTablesRoundTrip) {
  for (unsigned I = 0; I < analysis::NumLintPasses; ++I) {
    LintPass Pass = static_cast<LintPass>(I);
    std::string Name = analysis::lintPassName(Pass);
    EXPECT_FALSE(Name.empty());
    auto Back = analysis::lintPassFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Pass);
  }
  EXPECT_FALSE(analysis::lintPassFromName("no-such-pass").has_value());

  for (LintMode Mode : {LintMode::Off, LintMode::Warn, LintMode::Strict}) {
    std::string Name = analysis::lintModeName(Mode);
    auto Back = analysis::lintModeFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Mode);
  }
  EXPECT_FALSE(analysis::lintModeFromName("loose").has_value());

  std::vector<std::string> Names;
  for (unsigned I = 0; I < analysis::NumMutationKinds; ++I) {
    MutationKind Kind = static_cast<MutationKind>(I);
    std::string Name = analysis::mutationKindName(Kind);
    EXPECT_FALSE(Name.empty());
    for (const std::string &Seen : Names)
      EXPECT_NE(Seen, Name);
    Names.push_back(Name);
    // The chaos codegen-mutate site draws kinds through this round-trip;
    // a missing table entry would silently disable that mutation.
    auto Back = analysis::mutationKindFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Kind);
  }
  EXPECT_FALSE(analysis::mutationKindFromName("no-such-kind").has_value());
}

TEST(KernelLint, ExplainLintDescribesTheKernel) {
  // A small plan keeps the explain dump's traffic replay cheap; the
  // structure it describes is the same at any extent.
  Contraction TC = *Contraction::parseUniform("ab-ac-cb", 8);
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue());
  core::KernelPlan Plan(TC, Result->best().Config);
  std::string Source = core::emitCuda(Plan).KernelSource;
  std::string Explanation = analysis::explainLint(Plan, Source);
  EXPECT_NE(Explanation.find("barrier"), std::string::npos) << Explanation;
  EXPECT_NE(Explanation.find("s_A"), std::string::npos) << Explanation;
}

} // namespace

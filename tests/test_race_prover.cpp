//===- tests/test_race_prover.cpp - KernelRaceProver unit tests -----------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// The symbolic two-thread race & barrier-divergence analyzer:
//  - uniformity (taint) classes on the corpus kernel,
//  - the full TCCG suite proves race- and divergence-clean on both devices,
//    and every barrier corruption of every suite kernel is killed,
//  - each race-seeding MutationKind is killed by its prover analysis and
//    every reported race carries a witness that replays,
//  - explainRaces renders the derivation, lintKernel surfaces the passes.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelDataflow.h"
#include "analysis/KernelLint.h"
#include "analysis/KernelModel.h"
#include "analysis/KernelRaceProver.h"
#include "analysis/SourceMutator.h"
#include "core/CodeGen.h"
#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "gpu/DeviceSpec.h"
#include "ir/Contraction.h"
#include "suite/TccgSuite.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cogent;
using analysis::MutationKind;
using analysis::RaceFinding;
using analysis::RaceFindingKind;
using analysis::RaceReport;
using analysis::Uniformity;
using ir::Contraction;

namespace {

struct Corpus {
  Contraction TC;
  core::KernelPlan Plan;
  std::string Source;
};

/// Same corpus as test_kernel_lint: the paper's Eq. 1 contraction, whose
/// winning V100 mapping exercises both register-tile dimensions.
Corpus makeCorpus() {
  Contraction TC = *Contraction::parseUniform("abcd-aebf-dfce", 24);
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  EXPECT_TRUE(Result.hasValue());
  core::KernelPlan Plan(TC, Result->best().Config);
  return Corpus{TC, Plan, core::emitCuda(Plan).KernelSource};
}

RaceReport prove(const core::KernelPlan &Plan, const std::string &Source) {
  ErrorOr<analysis::KernelModel> Model = analysis::parseKernelSource(Source);
  EXPECT_TRUE(Model.hasValue());
  ErrorOr<analysis::DataflowInfo> Flow = analysis::buildDataflow(*Model);
  EXPECT_TRUE(Flow.hasValue());
  return analysis::proveRaces(Plan, *Model, *Flow);
}

std::string renderAll(const RaceReport &R) {
  std::string Out;
  for (const RaceFinding &F : R.Findings)
    Out += F.render() + "\n";
  return Out.empty() ? "<no findings>" : Out;
}

bool hasKind(const RaceReport &R, RaceFindingKind Kind) {
  for (const RaceFinding &F : R.Findings)
    if (F.Kind == Kind)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Uniformity classes
//===----------------------------------------------------------------------===//

TEST(RaceProver, UniformityClassesOnCorpus) {
  Corpus C = makeCorpus();
  ErrorOr<analysis::KernelModel> Model =
      analysis::parseKernelSource(C.Source);
  ASSERT_TRUE(Model.hasValue());
  ErrorOr<analysis::DataflowInfo> Flow = analysis::buildDataflow(*Model);
  ASSERT_TRUE(Flow.hasValue());
  analysis::UniformityInfo U = analysis::analyzeUniformity(*Model, *Flow);

  // Thread decode chain is thread-dependent; schema-uniform roles are not.
  EXPECT_EQ(U.classOf(*Flow, "tid"), Uniformity::ThreadDependent);
  EXPECT_EQ(U.classOf(*Flow, "t_a"), Uniformity::ThreadDependent);
  EXPECT_EQ(U.classOf(*Flow, "numSteps"), Uniformity::Uniform);
  EXPECT_EQ(U.classOf(*Flow, "totalBlocks"), Uniformity::Uniform);
  EXPECT_EQ(U.classOf(*Flow, "base_a"), Uniformity::Uniform);
  EXPECT_EQ(U.classOf(*Flow, "kbase_e"), Uniformity::Uniform);
  EXPECT_EQ(U.classOf(*Flow, "strA_a"), Uniformity::Uniform);

  // The cooperative slice cursor varies by thread *and* by iteration.
  bool FoundCursor = false;
  for (size_t I = 0; I < Flow->Locations.size(); ++I)
    if (Flow->Locations[I].Name == "l") {
      FoundCursor = true;
      EXPECT_EQ(U.Classes[I], Uniformity::ThreadDependent);
      EXPECT_TRUE(U.IterationPrivate[I]);
    }
  EXPECT_TRUE(FoundCursor);
}

//===----------------------------------------------------------------------===//
// The clean-kernel guarantee
//===----------------------------------------------------------------------===//

TEST(RaceProver, CorpusKernelProvesRaceFree) {
  Corpus C = makeCorpus();
  RaceReport R = prove(C.Plan, C.Source);
  EXPECT_TRUE(R.Findings.empty()) << renderAll(R);
  EXPECT_TRUE(R.raceFree());
  EXPECT_GT(R.Intervals, 1u);
  EXPECT_GT(R.AccessesChecked, 0u);
  EXPECT_GT(R.PairsChecked, 0u);
  // The emitted layouts are proved by the analytic arguments, not by
  // falling through to bounded enumeration.
  EXPECT_EQ(R.PairsChecked, R.ProvedByInterval + R.ProvedByGcd +
                                R.ProvedByInjectivity + R.ProvedByEnumeration)
      << renderAll(R);
}

namespace {

/// One top-ranked emission of a TCCG entry on one device.
struct SuiteKernel {
  std::string Label; ///< "<entry> on <device>".
  core::KernelPlan Plan;
  std::string Source;
};

/// The paper's whole benchmark suite on both devices, generated once per
/// process with lint off (the tests below run the prover directly).
const std::vector<SuiteKernel> &suiteKernels() {
  static const std::vector<SuiteKernel> Kernels = [] {
    std::vector<SuiteKernel> Out;
    for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
      core::Cogent Generator(Device);
      core::CogentOptions Options;
      Options.Lint.Mode = analysis::LintMode::Off;
      for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
        std::string Label = Entry.Name + " on " + Device.Name;
        ErrorOr<core::GenerationResult> Result =
            Generator.generate(Entry.contraction(), Options);
        EXPECT_TRUE(Result.hasValue()) << Label;
        if (!Result)
          continue;
        core::KernelPlan Plan(Result->FallbackContraction
                                  ? *Result->FallbackContraction
                                  : Entry.contraction(),
                              Result->best().Config);
        Out.push_back({Label, Plan, Result->best().Source.KernelSource});
      }
    }
    return Out;
  }();
  return Kernels;
}

} // namespace

TEST(RaceProver, TccgSuiteRaceAndDivergenceCleanOnBothDevices) {
  // Every top-ranked emission must prove race- and divergence-free with
  // zero findings of any kind (warnings here would mean the solver lost
  // precision on layouts the emitter legitimately produces).
  ASSERT_EQ(suiteKernels().size(), 2 * suite::tccgSuite().size());
  for (const SuiteKernel &K : suiteKernels()) {
    RaceReport R = prove(K.Plan, K.Source);
    EXPECT_TRUE(R.Findings.empty()) << K.Label << ":\n" << renderAll(R);
  }
}

TEST(RaceProver, TccgSuiteBarrierMutantsAllKilled) {
  // The prover is the only barrier-safety engine, so every barrier
  // corruption of every suite kernel must die here: a dropped barrier as
  // a race with a replayable witness (warp-mates count as distinct
  // threads, so one-warp blocks are covered), a thread-guarded barrier as
  // divergence.
  ASSERT_EQ(suiteKernels().size(), 2 * suite::tccgSuite().size());
  for (const SuiteKernel &K : suiteKernels()) {
    for (MutationKind Kind :
         {MutationKind::DropFirstBarrier, MutationKind::DropSecondBarrier,
          MutationKind::DivergentBarrier,
          MutationKind::DivergentBarrierThread}) {
      std::string Mutated = analysis::applyMutation(K.Source, Kind);
      ASSERT_NE(Mutated, K.Source)
          << K.Label << ": " << analysis::mutationKindName(Kind)
          << " pattern absent";
      RaceReport R = prove(K.Plan, Mutated);
      bool Drop = Kind == MutationKind::DropFirstBarrier ||
                  Kind == MutationKind::DropSecondBarrier;
      bool Caught = Drop ? !R.raceFree()
                         : hasKind(R, RaceFindingKind::DivergentBarrier);
      EXPECT_TRUE(Caught) << K.Label << ": "
                          << analysis::mutationKindName(Kind)
                          << " survived:\n" << renderAll(R);
      for (const RaceFinding &F : R.Findings) {
        if (F.Kind == RaceFindingKind::WriteWriteRace ||
            F.Kind == RaceFindingKind::WriteReadRace) {
          EXPECT_TRUE(analysis::replayWitness(F))
              << K.Label << ": " << F.render();
        }
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Mutation kills: each analysis proves its seeded defect
//===----------------------------------------------------------------------===//

namespace {

const std::vector<std::pair<MutationKind, RaceFindingKind>> &raceKills() {
  static const std::vector<std::pair<MutationKind, RaceFindingKind>> Kills = {
      {MutationKind::TaintBlockBase, RaceFindingKind::NonUniformValue},
      {MutationKind::TaintStepBase, RaceFindingKind::NonUniformValue},
      {MutationKind::TaintStepCount, RaceFindingKind::NonUniformValue},
      {MutationKind::UniformizeSliceInit, RaceFindingKind::WriteWriteRace},
      {MutationKind::CollapseSmemWriteStride,
       RaceFindingKind::WriteWriteRace},
      {MutationKind::DropStoreCoordinate, RaceFindingKind::WriteWriteRace},
      {MutationKind::GuardBarrierOddTid, RaceFindingKind::DivergentBarrier},
      {MutationKind::GuardBarrierHalfTile,
       RaceFindingKind::DivergentBarrier},
      {MutationKind::DivergeStepLoop, RaceFindingKind::DivergentBarrier},
  };
  return Kills;
}

} // namespace

TEST(RaceProver, MutationCorpusKillsEveryAnalysis) {
  Corpus C = makeCorpus();
  unsigned UniformityKills = 0, RaceKills = 0, DivergenceKills = 0;
  for (const auto &[Kind, Expected] : raceKills()) {
    std::string Mutated = analysis::applyMutation(C.Source, Kind);
    ASSERT_NE(Mutated, C.Source)
        << analysis::mutationKindName(Kind)
        << ": mutation pattern absent from the corpus kernel";
    RaceReport R = prove(C.Plan, Mutated);
    EXPECT_TRUE(hasKind(R, Expected))
        << analysis::mutationKindName(Kind) << " expected a "
        << analysis::raceFindingKindName(Expected) << " finding, got:\n"
        << renderAll(R);
    if (!hasKind(R, Expected))
      continue;
    switch (Expected) {
    case RaceFindingKind::NonUniformValue:
      ++UniformityKills;
      break;
    case RaceFindingKind::WriteWriteRace:
      ++RaceKills;
      EXPECT_FALSE(R.raceFree());
      break;
    case RaceFindingKind::DivergentBarrier:
      ++DivergenceKills;
      break;
    default:
      break;
    }
    // Every reported race must carry a witness that replays to a true
    // same-address, different-thread access under the recorded forms.
    for (const RaceFinding &F : R.Findings) {
      if (F.Kind != RaceFindingKind::WriteWriteRace &&
          F.Kind != RaceFindingKind::WriteReadRace)
        continue;
      ASSERT_TRUE(F.Witness.has_value()) << F.render();
      EXPECT_TRUE(analysis::replayWitness(F)) << F.render();
      EXPECT_NE(F.Witness->Thread1, F.Witness->Thread2) << F.render();
    }
  }
  // >= 3 distinct kills per analysis, so one broken transform cannot mask
  // an analysis that stopped firing.
  EXPECT_GE(UniformityKills, 3u);
  EXPECT_GE(RaceKills, 3u);
  EXPECT_GE(DivergenceKills, 3u);
}

//===----------------------------------------------------------------------===//
// Lint surface and rendering
//===----------------------------------------------------------------------===//

TEST(RaceProver, LintSurfacesProverFindingsAsPasses10To12) {
  using analysis::LintPass;
  EXPECT_TRUE(analysis::isRacePass(LintPass::Uniformity));
  EXPECT_TRUE(analysis::isRacePass(LintPass::RaceFreedom));
  EXPECT_TRUE(analysis::isRacePass(LintPass::BarrierUniformity));
  EXPECT_FALSE(analysis::isRacePass(LintPass::RedundantBarrier));
  EXPECT_FALSE(analysis::isRacePass(LintPass::Structure));

  Corpus C = makeCorpus();
  struct Row {
    MutationKind Kind;
    LintPass Pass;
  };
  for (const Row &Row : {Row{MutationKind::TaintBlockBase,
                             LintPass::Uniformity},
                         Row{MutationKind::UniformizeSliceInit,
                             LintPass::RaceFreedom},
                         Row{MutationKind::GuardBarrierOddTid,
                             LintPass::BarrierUniformity}}) {
    std::string Mutated = analysis::applyMutation(C.Source, Row.Kind);
    analysis::LintReport Report = analysis::lintKernel(C.Plan, Mutated);
    bool Found = false;
    for (const analysis::LintFinding &F : Report.Findings)
      Found |= F.Pass == Row.Pass &&
               F.Severity == analysis::LintSeverity::Error;
    EXPECT_TRUE(Found) << analysis::mutationKindName(Row.Kind);
  }
}

TEST(RaceProver, StrictGateCountsRaceRejections) {
  // Baseline: a clean generation reports zero race findings/rejections.
  Corpus C = makeCorpus();
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(C.TC);
  ASSERT_TRUE(Result.hasValue());
  EXPECT_EQ(Result->raceFindings(), 0u);
  EXPECT_EQ(Result->raceRejections(), 0u);
  // The metrics document carries both fields for bench_compare.
  std::string Json =
      core::renderMetricsJson(C.TC, *Result, gpu::makeV100());
  EXPECT_NE(Json.find("\"race_findings\":0"), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"race_rejections\":0"), std::string::npos) << Json;
}

TEST(RaceProver, ExplainRacesRendersTheDerivation) {
  Corpus C = makeCorpus();
  std::string Out = analysis::explainRaces(C.Plan, C.Source);
  EXPECT_NE(Out.find("=== race prover: uniformity ==="), std::string::npos);
  EXPECT_NE(Out.find("=== race prover: solver ==="), std::string::npos);
  EXPECT_NE(Out.find("=== race prover: findings ==="), std::string::npos);
  EXPECT_NE(Out.find("none - race and divergence clean"), std::string::npos)
      << Out;
  EXPECT_NE(Out.find("tid: thread-dependent"), std::string::npos);

  // A seeded divergence renders its finding instead of the clean line.
  std::string Mutated =
      analysis::applyMutation(C.Source, MutationKind::GuardBarrierOddTid);
  std::string Bad = analysis::explainRaces(C.Plan, Mutated);
  EXPECT_NE(Bad.find("divergent-barrier"), std::string::npos) << Bad;
  EXPECT_EQ(Bad.find("none - race and divergence clean"), std::string::npos);
}

TEST(RaceProver, WitnessRenderAndFormEvalAreConsistent) {
  Corpus C = makeCorpus();
  std::string Mutated =
      analysis::applyMutation(C.Source, MutationKind::UniformizeSliceInit);
  RaceReport R = prove(C.Plan, Mutated);
  ASSERT_FALSE(R.raceFree()) << renderAll(R);
  for (const RaceFinding &F : R.Findings) {
    if (F.Kind != RaceFindingKind::WriteWriteRace &&
        F.Kind != RaceFindingKind::WriteReadRace)
      continue;
    ASSERT_TRUE(F.Witness.has_value());
    // Both columns of the witness evaluate both recorded forms to the
    // reported address.
    EXPECT_EQ(F.First.eval(F.Witness->Coords, /*Second=*/false),
              F.Witness->Address)
        << F.render();
    EXPECT_EQ(F.Second.eval(F.Witness->Coords, /*Second=*/true),
              F.Witness->Address)
        << F.render();
    // The rendering mentions the thread pair.
    EXPECT_NE(F.Witness->render().find("threads ("), std::string::npos);
  }
}

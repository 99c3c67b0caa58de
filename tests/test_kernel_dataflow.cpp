//===- tests/test_kernel_dataflow.cpp - CFG + liveness framework ----------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The KernelDataflow contract, from both directions:
///
///   - golden liveness fixtures over hand-written mini-kernels
///     (loop-carried definitions, guarded writes, shadowed scalars, reads
///     no definition reaches) pin
///     the CFG shape and solver verdicts to known-correct answers;
///   - every kernel the pipeline emits for the TCCG suite is dataflow-clean
///     on both device models — no dead stores, no undefined uses, and (by
///     the race prover's barrier intervals) no redundant barriers — and
///     its liveness-derived register pressure agrees with
///     planRegisterPressure within PressureToleranceRegs;
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelDataflow.h"
#include "analysis/KernelRaceProver.h"
#include "core/Cogent.h"
#include "core/CostModel.h"
#include "core/KernelPlan.h"
#include "suite/TccgSuite.h"
#include "verify/PlanVerifier.h"

#include <gtest/gtest.h>

#include <string>

using namespace cogent;
using analysis::AccessKind;
using analysis::DataflowInfo;
using analysis::DefInfo;
using analysis::KernelModel;
using analysis::LocSpace;
using ir::Contraction;

namespace {

DataflowInfo analyze(const std::string &Source) {
  ErrorOr<KernelModel> Model = analysis::parseKernelSource(Source);
  EXPECT_TRUE(Model.hasValue()) << Model.errorMessage();
  ErrorOr<DataflowInfo> Flow = analysis::buildDataflow(*Model);
  EXPECT_TRUE(Flow.hasValue()) << Flow.errorMessage();
  return *Flow;
}

unsigned deadDefCount(const DataflowInfo &Flow) {
  unsigned N = 0;
  for (const DefInfo &D : Flow.Defs)
    N += D.Dead;
  return N;
}

std::string renderDeadDefs(const DataflowInfo &Flow) {
  std::string Out;
  for (const DefInfo &D : Flow.Defs)
    if (D.Dead)
      Out += Flow.Locations[D.Loc].Name + " at line " +
             std::to_string(D.Line) + "\n";
  return Out.empty() ? "<none>" : Out;
}

/// 1-based line of the first occurrence of \p Needle in \p Source.
unsigned lineOf(const std::string &Source, const std::string &Needle) {
  size_t Pos = Source.find(Needle);
  EXPECT_NE(Pos, std::string::npos) << Needle;
  unsigned Line = 1;
  for (size_t I = 0; I < Pos; ++I)
    Line += Source[I] == '\n';
  return Line;
}

} // namespace

//===----------------------------------------------------------------------===//
// Golden fixtures
//===----------------------------------------------------------------------===//

TEST(KernelDataflow, LoopCarriedDefStaysLive) {
  const std::string Source = R"(__global__ void k(const double *g_A, double *g_C, const long long N_a) {
  int acc = 0;
  for (int i = 0; i < 8; ++i) {
    acc = acc + i;
  }
  g_C[acc] = g_A[acc];
}
)";
  DataflowInfo Flow = analyze(Source);
  // Both defs of acc are observed: the init feeds the first iteration
  // through the loop back edge, the in-loop def feeds both the next
  // iteration and the final store.
  EXPECT_EQ(deadDefCount(Flow), 0u) << renderDeadDefs(Flow);
  EXPECT_TRUE(Flow.UndefinedUses.empty());

  std::optional<unsigned> Acc = Flow.location("acc");
  ASSERT_TRUE(Acc.has_value());
  // One read in the carry, two in the store.
  EXPECT_EQ(Flow.UseCounts[*Acc], 3u);
}

TEST(KernelDataflow, GuardedWriteMergesWithFallThrough) {
  const std::string Source = R"(__global__ void k(const double *g_A, double *g_C, const long long N_a) {
  int tid = threadIdx.x;
  int v = 0;
  if (tid < 4) {
    v = 1;
  }
  g_C[v] = g_A[tid];
}
)";
  DataflowInfo Flow = analyze(Source);
  // The guarded def does not kill the fall-through init: both defs of v
  // reach the store, so neither is dead.
  EXPECT_EQ(deadDefCount(Flow), 0u) << renderDeadDefs(Flow);
  EXPECT_TRUE(Flow.UndefinedUses.empty());

  std::optional<unsigned> V = Flow.location("v");
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(Flow.UseCounts[*V], 1u);
}

TEST(KernelDataflow, ReadOfNeverWrittenScalarIsUndefined) {
  const std::string Source = R"(__global__ void k(const double *g_A, double *g_C, const long long N_a) {
  int tid = threadIdx.x;
  g_C[tid] = g_A[ghost];
}
)";
  DataflowInfo Flow = analyze(Source);
  ASSERT_EQ(Flow.UndefinedUses.size(), 1u);
  EXPECT_EQ(Flow.Locations[Flow.UndefinedUses[0].Loc].Name, "ghost");
  EXPECT_EQ(Flow.UndefinedUses[0].Line, lineOf(Source, "g_A[ghost]"));
}

TEST(KernelDataflow, DefinitionOnSomePathIsNotUndefined) {
  // v is written only under the guard and w only inside the loop; the
  // fall-through and zero-trip paths skip them, but some path defines
  // each, so neither read is undefined. Only u, never written, is.
  const std::string Source = R"(__global__ void k(const double *g_A, double *g_C, const long long N_a) {
  int tid = threadIdx.x;
  if (tid < 4) {
    v = 1;
  }
  for (int i = 0; i < 8; ++i) {
    w = i;
  }
  g_C[v + w] = g_A[u];
}
)";
  DataflowInfo Flow = analyze(Source);
  ASSERT_EQ(Flow.UndefinedUses.size(), 1u);
  EXPECT_EQ(Flow.Locations[Flow.UndefinedUses[0].Loc].Name, "u");
}

TEST(KernelDataflow, DeadAndShadowedScalarsAreFlagged) {
  const std::string Source = R"(__global__ void k(const double *g_A, double *g_C, const long long N_a) {
  int tid = threadIdx.x;
  int unused = tid;
  int x = tid;
  x = 5;
  g_C[x] = g_A[tid];
}
)";
  DataflowInfo Flow = analyze(Source);
  ASSERT_EQ(deadDefCount(Flow), 2u) << renderDeadDefs(Flow);

  std::optional<unsigned> Unused = Flow.location("unused");
  std::optional<unsigned> X = Flow.location("x");
  ASSERT_TRUE(Unused.has_value());
  ASSERT_TRUE(X.has_value());
  // 'unused' is never read at all; the first def of 'x' is shadowed by
  // the reassignment before any use.
  EXPECT_EQ(Flow.UseCounts[*Unused], 0u);
  EXPECT_GT(Flow.UseCounts[*X], 0u);
  for (const DefInfo &D : Flow.Defs) {
    if (D.Loc == *Unused)
      EXPECT_TRUE(D.Dead);
    if (D.Loc == *X)
      EXPECT_EQ(D.Dead, D.Line == lineOf(Source, "int x"));
  }
}

TEST(KernelDataflow, ExplainRendersTheAnalysis) {
  const std::string Source = R"(__global__ void k(const double *g_A, double *g_C, const long long N_a) {
  __shared__ double s_T[32];
  int tid = threadIdx.x;
  s_T[tid] = g_A[tid];
  __syncthreads();
  g_C[tid] = s_T[tid];
}
)";
  ErrorOr<KernelModel> Model = analysis::parseKernelSource(Source);
  ASSERT_TRUE(Model.hasValue());
  ErrorOr<DataflowInfo> Flow = analysis::buildDataflow(*Model);
  ASSERT_TRUE(Flow.hasValue());
  std::string Text = analysis::explainDataflow(*Model, *Flow);
  EXPECT_NE(Text.find("CFG"), std::string::npos);
  EXPECT_NE(Text.find("register pressure"), std::string::npos);
  EXPECT_NE(Text.find("s_T written read"), std::string::npos) << Text;
  // Barrier verdicts belong to explainRaces now.
  EXPECT_EQ(Text.find("barriers:"), std::string::npos) << Text;
}

//===----------------------------------------------------------------------===//
// Whole-suite invariants
//===----------------------------------------------------------------------===//

TEST(KernelDataflow, SeedSuiteIsDataflowCleanOnBothDevices) {
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      Contraction TC = Entry.contractionScaled(24);
      ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
      ASSERT_TRUE(Result.hasValue()) << Entry.Name;
      const core::GeneratedKernel &Kernel = Result->best();

      ErrorOr<KernelModel> Model =
          analysis::parseKernelSource(Kernel.Source.KernelSource);
      ASSERT_TRUE(Model.hasValue()) << Entry.Name;
      ErrorOr<DataflowInfo> Flow = analysis::buildDataflow(*Model);
      ASSERT_TRUE(Flow.hasValue()) << Entry.Name;

      EXPECT_EQ(deadDefCount(*Flow), 0u)
          << Entry.Name << " on " << Device.Name << ":\n"
          << renderDeadDefs(*Flow);
      EXPECT_TRUE(Flow->UndefinedUses.empty())
          << Entry.Name << " on " << Device.Name;

      const Contraction &PlanTC =
          Result->Fallback == core::FallbackLevel::TtgtBaseline
              ? *Result->FallbackContraction
              : TC;
      core::KernelPlan Plan(PlanTC, Kernel.Config);
      for (const analysis::BarrierVerdict &V :
           analysis::proveRaces(Plan, *Model, *Flow).Barriers)
        EXPECT_FALSE(V.Redundant)
            << Entry.Name << " on " << Device.Name << " barrier line "
            << V.Line;

      // The source-side pressure estimate tracks the plan-side analytic
      // one within the documented tolerance across the whole suite.
      unsigned PlanEstimate = core::planRegisterPressure(Plan, 8);
      unsigned SourceEstimate = Flow->pressure();
      unsigned Delta = PlanEstimate > SourceEstimate
                           ? PlanEstimate - SourceEstimate
                           : SourceEstimate - PlanEstimate;
      EXPECT_LE(Delta, analysis::PressureToleranceRegs)
          << Entry.Name << " on " << Device.Name << ": plan " << PlanEstimate
          << " vs source " << SourceEstimate;
      // The always-on reporting half surfaced the same number through the
      // lint report into the generated kernel.
      EXPECT_EQ(Kernel.SourcePressure, SourceEstimate) << Entry.Name;
      EXPECT_EQ(Kernel.PlanPressure, PlanEstimate) << Entry.Name;
    }
  }
}

TEST(KernelDataflow, PlanPressureScalesWithOrderUnderTheCap) {
  // The analytic estimate prices the index arithmetic per tensor
  // dimension, so a rank-6 contraction costs more than a rank-2 one for
  // comparable tiles — but never exceeds the shared 512-register cap.
  core::Cogent Generator(gpu::makeV100());
  Contraction Small = *Contraction::parseUniform("ab-ac-cb", 32);
  Contraction Large = *Contraction::parseUniform("abcdef-gdab-efgc", 8);
  ErrorOr<core::GenerationResult> SmallR = Generator.generate(Small);
  ErrorOr<core::GenerationResult> LargeR = Generator.generate(Large);
  ASSERT_TRUE(SmallR.hasValue());
  ASSERT_TRUE(LargeR.hasValue());
  unsigned SmallP = SmallR->best().PlanPressure;
  unsigned LargeP = LargeR->best().PlanPressure;
  EXPECT_GT(SmallP, 28u); // More than the flat bookkeeping floor.
  EXPECT_LE(SmallP, 512u);
  EXPECT_GT(LargeP, 28u);
  EXPECT_LE(LargeP, 512u);
}

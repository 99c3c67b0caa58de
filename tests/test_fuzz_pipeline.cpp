//===- tests/test_fuzz_pipeline.cpp - Whole-pipeline robustness fuzzing ----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fuzzing of the hardened generation pipeline: thousands of
/// seeded random / mutated specs, extent maps, device specs and budgets are
/// fed through parse -> enumerate -> rank -> emit. The contract under test:
///
///   - nothing crashes or asserts, ever;
///   - malformed inputs come back as *typed* errors (never ErrorCode::
///     Unknown, never an empty message);
///   - well-formed inputs always yield at least one kernel — via the
///     fallback chain when the search or the device is hostile — whose
///     simulated numerics match the reference contraction.
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"
#include "baselines/Ttgt.h"
#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "gpu/KernelSimulator.h"
#include "suite/TccgSuite.h"
#include "support/Random.h"
#include "tensor/Reference.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace cogent;
using core::FallbackLevel;
using ir::Contraction;
using ir::Operand;

namespace {

/// Builds a random well-formed contraction: every index in exactly two
/// tensors, operands non-empty, extents in [1, MaxExtent].
struct RandomCase {
  std::string Spec;
  std::vector<std::pair<char, int64_t>> Extents;
};

RandomCase randomWellFormed(Rng &Gen, int64_t MaxExtent) {
  int NumInternal = static_cast<int>(Gen.uniformInt(0, 2));
  int NumExtA = static_cast<int>(Gen.uniformInt(0, 2));
  int NumExtB = static_cast<int>(Gen.uniformInt(0, 2));
  // C must be non-empty; A and B must be non-empty.
  if (NumExtA + NumExtB == 0)
    NumExtA = 1;
  if (NumInternal == 0) {
    if (NumExtA == 0)
      NumExtA = 1;
    if (NumExtB == 0)
      NumExtB = 1;
  }

  char Next = 'a';
  std::vector<char> ExtA, ExtB, Internals;
  for (int I = 0; I < NumExtA; ++I)
    ExtA.push_back(Next++);
  for (int I = 0; I < NumExtB; ++I)
    ExtB.push_back(Next++);
  for (int I = 0; I < NumInternal; ++I)
    Internals.push_back(Next++);

  auto shuffled = [&](std::vector<char> V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[Gen.uniformInt(0, static_cast<int64_t>(I) - 1)]);
    return V;
  };
  std::vector<char> C = ExtA;
  C.insert(C.end(), ExtB.begin(), ExtB.end());
  C = shuffled(C);
  std::vector<char> A = ExtA;
  A.insert(A.end(), Internals.begin(), Internals.end());
  A = shuffled(A);
  std::vector<char> B = ExtB;
  B.insert(B.end(), Internals.begin(), Internals.end());
  B = shuffled(B);

  RandomCase Case;
  Case.Spec.assign(C.begin(), C.end());
  Case.Spec += '-';
  Case.Spec.append(A.begin(), A.end());
  Case.Spec += '-';
  Case.Spec.append(B.begin(), B.end());
  for (char Name = 'a'; Name < Next; ++Name)
    Case.Extents.emplace_back(Name, Gen.uniformInt(1, MaxExtent));
  return Case;
}

/// Applies a random corruption to a spec string. May happen to stay valid;
/// the pipeline contract covers both outcomes.
std::string mutateSpec(Rng &Gen, std::string Spec) {
  if (Spec.empty())
    return Spec;
  switch (Gen.uniformInt(0, 5)) {
  case 0: // delete a character
    Spec.erase(Gen.uniformInt(0, static_cast<int64_t>(Spec.size()) - 1), 1);
    break;
  case 1: // duplicate a character in place
    {
      size_t At = Gen.uniformInt(0, static_cast<int64_t>(Spec.size()) - 1);
      Spec.insert(At, 1, Spec[At]);
    }
    break;
  case 2: // replace with a hostile character
    {
      const char Hostile[] = {'-', 'A', '1', ' ', 'z'};
      Spec[Gen.uniformInt(0, static_cast<int64_t>(Spec.size()) - 1)] =
          Hostile[Gen.uniformInt(0, 4)];
    }
    break;
  case 3: // append garbage
    Spec += "-zz";
    break;
  case 4: // truncate
    Spec.resize(Spec.size() / 2);
    break;
  default: // swap two characters
    {
      size_t X = Gen.uniformInt(0, static_cast<int64_t>(Spec.size()) - 1);
      size_t Y = Gen.uniformInt(0, static_cast<int64_t>(Spec.size()) - 1);
      std::swap(Spec[X], Spec[Y]);
    }
    break;
  }
  return Spec;
}

/// Draws a device spec: the two real models plus hostile mutants with
/// starved shared memory / registers / thread slots.
gpu::DeviceSpec randomDevice(Rng &Gen) {
  gpu::DeviceSpec Device = Gen.flip() ? gpu::makeV100() : gpu::makeP100();
  switch (Gen.uniformInt(0, 4)) {
  case 0: // unmodified
    break;
  case 1: // no shared memory at all: even minimal tiles cannot stage
    Device.SharedMemPerBlock = 0;
    Device.SharedMemPerSM = 0;
    break;
  case 2: // a few bytes of shared memory
    Device.SharedMemPerBlock = static_cast<unsigned>(Gen.uniformInt(1, 256));
    Device.SharedMemPerSM = Device.SharedMemPerBlock;
    break;
  case 3: // starved registers
    Device.MaxRegistersPerThread =
        static_cast<unsigned>(Gen.uniformInt(1, 40));
    break;
  default: // tiny thread slots
    Device.MaxThreadsPerBlock = static_cast<unsigned>(Gen.uniformInt(1, 64));
    break;
  }
  return Device;
}

/// Validates the numerics of a generation result against the reference
/// contraction. For TTGT fallbacks the functional TTGT execution is the
/// artifact under test (the generated kernel targets the matricized GEMM).
void checkNumerics(const Contraction &TC, const core::GenerationResult &R,
                   Rng &Gen) {
  tensor::Tensor<double> A = tensor::makeOperand<double>(TC, Operand::A);
  tensor::Tensor<double> B = tensor::makeOperand<double>(TC, Operand::B);
  A.fillRandom(Gen);
  B.fillRandom(Gen);
  tensor::Tensor<double> Expected = tensor::makeOperand<double>(TC, Operand::C);
  tensor::contractReference(TC, Expected, A, B);
  tensor::Tensor<double> Actual = tensor::makeOperand<double>(TC, Operand::C);

  if (R.Fallback == FallbackLevel::TtgtBaseline) {
    ASSERT_TRUE(R.FallbackContraction.has_value());
    baselines::runTtgt(TC, Actual, A, B);
  } else {
    core::KernelPlan Plan(TC, R.best().Config);
    gpu::simulateKernel(Plan, Actual, A, B);
  }
  EXPECT_LT(tensor::maxAbsDifference(Expected, Actual), 1e-9)
      << TC.toStringWithExtents() << " fallback "
      << core::fallbackLevelName(R.Fallback);
}

/// How one pipeline iteration ended.
enum class PipelineOutcome {
  /// Parse + generate succeeded and the invariants held.
  Generated,
  /// The spec/extents were rejected at parse with a typed error.
  InputRejected,
  /// The (deliberately hostile) device was rejected with a typed error —
  /// InvalidDeviceSpec up front or VerificationFailed when even TTGT
  /// cannot fit.
  DeviceRejected,
};

/// One pipeline iteration; every rejection path asserts the error is typed.
PipelineOutcome runPipeline(
    const std::string &Spec,
    const std::vector<std::pair<char, int64_t>> &Extents, Rng &Gen,
    bool CheckNumerics) {
  ErrorOr<Contraction> TC = Contraction::parse(Spec, Extents);
  if (!TC) {
    EXPECT_NE(TC.errorCode(), ErrorCode::Unknown)
        << "untyped parse error for \"" << Spec << "\"";
    EXPECT_FALSE(TC.error().message().empty());
    return PipelineOutcome::InputRejected;
  }

  gpu::DeviceSpec Device = randomDevice(Gen);
  core::Cogent Generator(Device);
  core::CogentOptions Options;
  Options.TopK = static_cast<size_t>(Gen.uniformInt(1, 3));
  if (Gen.flip(0.3))
    Options.Budget.MaxConfigs = static_cast<uint64_t>(Gen.uniformInt(1, 200));
  if (Gen.flip(0.1))
    Options.Budget.DeadlineMs = 0.001; // expires essentially immediately
  if (Gen.flip(0.3))
    Options.Budget.MaxSourceBytes =
        static_cast<uint64_t>(Gen.uniformInt(1, 1 << 16));
  if (Gen.flip()) {
    Options.Enumeration.MinThreadBlocks = 1;
    Options.Enumeration.MinOccupancy = 0.0;
  }

  ErrorOr<core::GenerationResult> Result = Generator.generate(*TC, Options);
  if (!Result) {
    // Hostile devices are no longer silently absorbed: a nonsense spec
    // (zero shared memory) is rejected up front as InvalidDeviceSpec, and
    // a valid-but-starved device that cannot host even the TTGT kernel is
    // an unrescued VerificationFailed. Anything else is a regression.
    EXPECT_TRUE(Result.errorCode() == ErrorCode::InvalidDeviceSpec ||
                Result.errorCode() == ErrorCode::VerificationFailed)
        << "well-formed contraction rejected with unexpected code "
        << errorCodeName(Result.errorCode()) << ": "
        << TC->toStringWithExtents() << " on " << Device.Name;
    EXPECT_FALSE(Result.error().message().empty());
    return PipelineOutcome::DeviceRejected;
  }
  EXPECT_FALSE(Result->empty()) << TC->toStringWithExtents();
  EXPECT_LE(Result->Stats.Examined, Result->Stats.RawConfigs);
  if (Result->Stats.truncated()) {
    EXPECT_TRUE(Options.Budget.MaxConfigs != 0 ||
                Options.Budget.DeadlineMs > 0.0);
  }
  for (const core::GeneratedKernel &Kernel : Result->Kernels)
    EXPECT_FALSE(Kernel.Source.KernelSource.empty());
  if (Result->Fallback == FallbackLevel::TtgtBaseline) {
    EXPECT_TRUE(Result->FallbackContraction.has_value());
  }

  // Strict KernelLint over the winning kernel: every source the fuzzed
  // pipeline accepts must lint clean, whatever fallback rung produced it,
  // and with no chaos injector active the strict gate inside generate()
  // must never have fired.
  if (!Result->empty()) {
    const Contraction &PlanTC =
        Result->Fallback == FallbackLevel::TtgtBaseline
            ? *Result->FallbackContraction
            : *TC;
    core::KernelPlan Plan(PlanTC, Result->best().Config);
    analysis::LintReport Report =
        analysis::lintKernel(Plan, Result->best().Source.KernelSource);
    EXPECT_TRUE(Report.clean()) << TC->toStringWithExtents() << " fallback "
                                << core::fallbackLevelName(Result->Fallback)
                                << ": "
                                << (Report.Findings.empty()
                                        ? std::string()
                                        : Report.Findings.front().render());
    EXPECT_EQ(Result->lintRejections(), 0u) << TC->toStringWithExtents();
  }

  if (CheckNumerics && !Result->empty())
    checkNumerics(*TC, *Result, Gen);
  return PipelineOutcome::Generated;
}

TEST(FuzzPipeline, ThousandsOfSeededIterationsNeverCrash) {
  Rng Gen(0xC06E27);
  int WellFormed = 0, Rejected = 0, DeviceRejected = 0;
  for (int Iter = 0; Iter < 2200; ++Iter) {
    RandomCase Case = randomWellFormed(Gen, /*MaxExtent=*/5);

    // One third run unmodified, one third with a mutated spec, one third
    // with mutated extents (zero, negative, huge, unknown index, missing).
    int Mode = Iter % 3;
    if (Mode == 1) {
      Case.Spec = mutateSpec(Gen, Case.Spec);
    } else if (Mode == 2 && !Case.Extents.empty()) {
      size_t At = Gen.uniformInt(0, static_cast<int64_t>(Case.Extents.size()) - 1);
      switch (Gen.uniformInt(0, 4)) {
      case 0:
        Case.Extents[At].second = 0;
        break;
      case 1:
        Case.Extents[At].second = -7;
        break;
      case 2: // per-operand products overflow int64
        for (auto &[Name, Extent] : Case.Extents)
          Extent = int64_t(1) << 62;
        break;
      case 3: // extent for an index the spec does not use
        Case.Extents.emplace_back('z', 4);
        break;
      default: // drop one extent entirely
        Case.Extents.erase(Case.Extents.begin() + At);
        break;
      }
    }

    // Numerics on a deterministic subset of small well-formed problems to
    // keep the whole harness inside a few seconds.
    bool CheckNumerics = (Iter % 5 == 0);
    switch (runPipeline(Case.Spec, Case.Extents, Gen, CheckNumerics)) {
    case PipelineOutcome::Generated:
      ++WellFormed;
      break;
    case PipelineOutcome::InputRejected:
      ++Rejected;
      break;
    case PipelineOutcome::DeviceRejected:
      ++DeviceRejected;
      break;
    }
  }
  // The split is seed-deterministic; pin rough shape so a regression that
  // silently rejects everything (or accepts garbage) is caught. The device
  // draw is hostile by design (zero/starved shared memory, starved
  // registers), so a healthy fraction of well-formed inputs must come back
  // as *typed* device rejections rather than bogus kernels.
  EXPECT_GT(WellFormed, 400);
  EXPECT_GT(Rejected, 300);
  EXPECT_GT(DeviceRejected, 200);
}

TEST(FuzzPipeline, RandomGarbageStringsNeverCrash) {
  Rng Gen(0xF00D);
  const char Alphabet[] = "abcdxyz--Z9 .\t=";
  for (int Iter = 0; Iter < 800; ++Iter) {
    std::string Input;
    int Length = static_cast<int>(Gen.uniformInt(0, 24));
    for (int I = 0; I < Length; ++I)
      Input += Alphabet[Gen.uniformInt(0, static_cast<int64_t>(sizeof(Alphabet)) - 2)];
    runPipeline(Input, {{'a', 3}, {'b', 3}, {'c', 3}, {'d', 3},
                        {'x', 3}, {'y', 3}, {'z', 3}},
                Gen, /*CheckNumerics=*/false);
  }
}

TEST(FuzzPipeline, SuiteSurvivesHostileDevices) {
  // A device with no shared memory at all is a *nonsense spec*, not a
  // hostile-but-real one: DeviceSpec::validate rejects it at the entry
  // point with a typed error instead of the old silent TTGT absorption.
  gpu::DeviceSpec NoSmem = gpu::makeV100();
  NoSmem.SharedMemPerBlock = 0;
  NoSmem.SharedMemPerSM = 0;
  EXPECT_EQ(NoSmem.validate().errorCode(), ErrorCode::InvalidDeviceSpec);
  {
    core::Cogent Generator(NoSmem);
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      ErrorOr<Contraction> TC = Entry.tryContractionScaled(16);
      ASSERT_TRUE(TC.hasValue()) << Entry.Name;
      ErrorOr<core::GenerationResult> Result = Generator.generate(*TC);
      ASSERT_FALSE(Result.hasValue()) << Entry.Name;
      EXPECT_EQ(Result.errorCode(), ErrorCode::InvalidDeviceSpec)
          << Entry.Name;
    }
  }

  // A valid but starved device (100 bytes of staging memory) engages the
  // fallback chain; every TCCG entry still yields a verified kernel.
  gpu::DeviceSpec TinySmem = gpu::makeP100();
  TinySmem.SharedMemPerBlock = 100;
  TinySmem.SharedMemPerSM = 100;
  ASSERT_TRUE(TinySmem.validate().hasValue());
  {
    core::Cogent Generator(TinySmem);
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      ErrorOr<Contraction> TC = Entry.tryContractionScaled(16);
      ASSERT_TRUE(TC.hasValue()) << Entry.Name;
      ErrorOr<core::GenerationResult> Result = Generator.generate(*TC);
      ASSERT_TRUE(Result.hasValue()) << Entry.Name << " on " << TinySmem.Name;
      EXPECT_FALSE(Result->empty()) << Entry.Name;
      EXPECT_NE(Result->Fallback, FallbackLevel::None)
          << Entry.Name << ": hostile device must engage the fallback chain";
    }
  }
}

TEST(FuzzPipeline, SuiteGeneratesOnRealDevices) {
  // The fallback chain must stay dormant where the normal path works.
  core::Cogent Generator(gpu::makeV100());
  for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
    ErrorOr<core::GenerationResult> Result =
        Generator.generate(Entry.contractionScaled(32));
    ASSERT_TRUE(Result.hasValue()) << Entry.Name;
    EXPECT_FALSE(Result->empty()) << Entry.Name;
    EXPECT_EQ(Result->Fallback, FallbackLevel::None) << Entry.Name;
  }
}

TEST(FuzzPipeline, MinimalTileFallbackOnDegenerateShapes) {
  // All-extent-1: pruning leaves nothing even after relaxation on a normal
  // device; the minimal-tile rung must absorb it.
  ErrorOr<Contraction> TC = Contraction::parseUniform("i-ik-k", 1);
  ASSERT_TRUE(TC.hasValue());
  core::CogentOptions Options;
  Options.Enumeration.RelaxWhenEmpty = false;
  Options.Enumeration.MinThreadBlocks = 1 << 30; // unreachable floor
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(*TC, Options);
  ASSERT_TRUE(Result.hasValue());
  EXPECT_EQ(Result->Fallback, FallbackLevel::MinimalTile);
  Rng Gen(7);
  checkNumerics(*TC, *Result, Gen);
}

TEST(FuzzPipeline, BudgetsTruncateWithoutFailing) {
  Contraction TC = *Contraction::parseUniform("abcd-aebf-dfce", 24);
  core::Cogent Generator(gpu::makeV100());

  core::CogentOptions CapConfigs;
  CapConfigs.Budget.MaxConfigs = 3;
  ErrorOr<core::GenerationResult> R1 = Generator.generate(TC, CapConfigs);
  ASSERT_TRUE(R1.hasValue());
  EXPECT_FALSE(R1->empty());
  EXPECT_EQ(R1->Stats.Status, core::SearchStatus::ConfigCapHit);
  EXPECT_LE(R1->Stats.Examined, 3u);

  core::CogentOptions CapTime;
  CapTime.Budget.DeadlineMs = 1e-6;
  ErrorOr<core::GenerationResult> R2 = Generator.generate(TC, CapTime);
  ASSERT_TRUE(R2.hasValue());
  EXPECT_FALSE(R2->empty());
  EXPECT_EQ(R2->Stats.Status, core::SearchStatus::DeadlineHit);

  core::CogentOptions CapBytes;
  CapBytes.TopK = 4;
  CapBytes.Budget.MaxSourceBytes = 1;
  ErrorOr<core::GenerationResult> R3 = Generator.generate(TC, CapBytes);
  ASSERT_TRUE(R3.hasValue());
  EXPECT_EQ(R3->Kernels.size(), 1u);
  EXPECT_TRUE(R3->SourceTruncated);

  // No budget: exhaustive search, untruncated.
  ErrorOr<core::GenerationResult> R4 = Generator.generate(TC);
  ASSERT_TRUE(R4.hasValue());
  EXPECT_EQ(R4->Stats.Status, core::SearchStatus::Complete);
  EXPECT_EQ(R4->Stats.Examined, R4->Stats.RawConfigs);
}

TEST(FuzzPipeline, MalformedInputsYieldTypedErrors) {
  using Case = std::pair<std::string, std::vector<std::pair<char, int64_t>>>;
  const std::vector<std::pair<Case, ErrorCode>> Cases = {
      {{"", {}}, ErrorCode::InvalidSpec},                      // empty spec
      {{"aab-ab-b", {{'a', 4}, {'b', 4}}}, ErrorCode::InvalidSpec}, // dup idx
      {{"ab-ac-cb", {{'a', 4}, {'b', 4}, {'c', 4}, {'z', 4}}},
       ErrorCode::InvalidSpec}, // unknown index in extents
      {{"ab-ac-cb", {{'a', 4}, {'b', 0}, {'c', 4}}},
       ErrorCode::InvalidSpec}, // extent 0
      {{"ab-ac-cb", {{'a', int64_t(1) << 32},
                     {'b', int64_t(1) << 32},
                     {'c', 4}}},
       ErrorCode::ExtentOverflow}, // product wraps int64
  };
  for (const auto &[Input, ExpectedCode] : Cases) {
    ErrorOr<Contraction> TC = Contraction::parse(Input.first, Input.second);
    ASSERT_FALSE(TC.hasValue()) << "\"" << Input.first << "\"";
    EXPECT_EQ(TC.errorCode(), ExpectedCode) << "\"" << Input.first << "\"";
    EXPECT_FALSE(TC.error().message().empty());
  }

  // Extent 1 everywhere is well-formed, not an error.
  EXPECT_TRUE(Contraction::parseUniform("ab-ac-cb", 1).hasValue());
}

TEST(FuzzPipeline, TwentySixIndexBoundary) {
  // All 26 index names in one contraction: 13 externals in C and A, 13
  // internals shared by A and B. The full a-z namespace must work.
  std::string C = "abcdefghijklm";
  std::string Internals = "nopqrstuvwxyz";
  std::string Spec = C + "-" + (C + Internals) + "-" + Internals;
  ErrorOr<Contraction> TC = Contraction::parseUniform(Spec, 2);
  ASSERT_TRUE(TC.hasValue());
  EXPECT_EQ(TC->allIndices().size(), 26u);
  core::CogentOptions Options;
  Options.Enumeration.MinThreadBlocks = 1;
  Options.Enumeration.MinOccupancy = 0.0;
  ErrorOr<core::GenerationResult> Result =
      core::Cogent(gpu::makeV100()).generate(*TC, Options);
  ASSERT_TRUE(Result.hasValue());
  EXPECT_FALSE(Result->empty());
}

TEST(FuzzPipeline, CorruptedSuiteListingReportsOffendingLine) {
  // A bad spec on line 3 (index 'q' in only one tensor).
  ErrorOr<std::vector<suite::SuiteEntry>> Bad = suite::parseSuiteListing(
      "# comment\n"
      "1 ml_1 ML abc-acd-db a=8 b=8 c=8 d=8\n"
      "2 bad CCSD abq-ac-cb a=8 b=8 c=8 q=8\n");
  ASSERT_FALSE(Bad.hasValue());
  EXPECT_EQ(Bad.errorCode(), ErrorCode::InvalidSpec);
  EXPECT_NE(Bad.errorMessage().find("line 3"), std::string::npos)
      << Bad.errorMessage();

  // Structural corruption: too few fields, bad id, unknown family, bad
  // extent syntax — each names its line.
  const std::vector<std::pair<std::string, std::string>> Corruptions = {
      {"1 ml_1 ML\n", "line 1"},
      {"zero ml_1 ML abc-acd-db a=8 b=8 c=8 d=8\n", "line 1"},
      {"\n\n7 x NOPE abc-acd-db a=8 b=8 c=8 d=8\n", "line 3"},
      {"3 ml_1 ML abc-acd-db a=8 b=eight c=8 d=8\n", "line 1"},
      {"4 ml_1 ML abc-acd-db a=8 b=8 c=8 d=0\n", "line 1"},
  };
  for (const auto &[Text, Where] : Corruptions) {
    ErrorOr<std::vector<suite::SuiteEntry>> Parsed =
        suite::parseSuiteListing(Text);
    ASSERT_FALSE(Parsed.hasValue()) << Text;
    EXPECT_NE(Parsed.errorMessage().find(Where), std::string::npos)
        << Parsed.errorMessage();
  }

  // And the pristine listing round-trips.
  ErrorOr<std::vector<suite::SuiteEntry>> Good = suite::parseSuiteListing(
      "1 ml_1 ML abc-acd-db a=8 b=8 c=8 d=8\n");
  ASSERT_TRUE(Good.hasValue());
  ASSERT_EQ(Good->size(), 1u);
  EXPECT_EQ((*Good)[0].Name, "ml_1");
  EXPECT_TRUE((*Good)[0].tryContraction().hasValue());
}

} // namespace

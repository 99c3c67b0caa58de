//===- tests/test_verifier.cpp - PlanVerifier + DifferentialChecker --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the verification subsystem: the static PlanVerifier invariants
/// (resource budgets, index coverage, cost lower bound, source
/// plausibility), its wiring into Cogent::generate (every emitted plan is
/// verified in the default build; failures demote down the fallback chain
/// or surface as typed errors), and the DifferentialChecker's
/// simulator-vs-reference execution across the TCCG suite at clamped
/// extents.
///
//===----------------------------------------------------------------------===//

#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "suite/TccgSuite.h"
#include "verify/DifferentialChecker.h"
#include "verify/PlanVerifier.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

using namespace cogent;
using core::Cogent;
using core::CogentOptions;
using core::FallbackLevel;
using ir::Contraction;
using verify::PlanVerifier;

namespace {

/// The contraction a generated kernel actually targets: the matricized
/// GEMM for TTGT fallbacks, the original otherwise.
const Contraction &planContraction(const Contraction &TC,
                                   const core::GenerationResult &R) {
  return R.Fallback == FallbackLevel::TtgtBaseline ? *R.FallbackContraction
                                                   : TC;
}

TEST(TransactionLowerBound, CountsEveryElementOnce) {
  Contraction TC = *Contraction::parseUniform("ij-ik-kj", 32);
  // 3 operands x 32*32 elements x 8 bytes / 32-byte transactions.
  EXPECT_DOUBLE_EQ(verify::transactionLowerBound(TC, 8, 32),
                   3.0 * 32 * 32 * 8 / 32);
  // Halving the element size halves the bound; ditto doubling the bus.
  EXPECT_DOUBLE_EQ(verify::transactionLowerBound(TC, 4, 32),
                   3.0 * 32 * 32 * 4 / 32);
  EXPECT_DOUBLE_EQ(verify::transactionLowerBound(TC, 8, 64),
                   3.0 * 32 * 32 * 8 / 64);
  // Each operand counts at its own size under non-uniform extents.
  Contraction Eq1 = *Contraction::parse(
      "abcd-aebf-dfce",
      {{'a', 2}, {'b', 3}, {'c', 5}, {'d', 7}, {'e', 11}, {'f', 13}});
  EXPECT_DOUBLE_EQ(verify::transactionLowerBound(Eq1, 8, 1),
                   8.0 * (2 * 3 * 5 * 7 + 2 * 11 * 3 * 13 + 7 * 13 * 5 * 11));
}

TEST(PlanVerifier, AcceptsEveryEmittedSuiteKernel) {
  // The acceptance criterion: in the default build (chaos off) every plan
  // generate() returns passes all three verifier checks against the real
  // device, with zero rejections recorded.
  gpu::DeviceSpec Device = gpu::makeV100();
  Cogent Generator(Device);
  PlanVerifier Verifier(Device, 8);
  for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
    CogentOptions Options;
    Options.TopK = 2;
    ErrorOr<core::GenerationResult> Result =
        Generator.generate(Entry.contractionScaled(24), Options);
    ASSERT_TRUE(Result.hasValue()) << Entry.Name;
    EXPECT_EQ(Result->verifierRejections(), 0u) << Entry.Name;
    EXPECT_EQ(Result->Fallback, FallbackLevel::None) << Entry.Name;
    const Contraction PlanTC = Entry.contractionScaled(24);
    for (const core::GeneratedKernel &Kernel : Result->Kernels) {
      core::KernelPlan Plan(PlanTC, Kernel.Config);
      ErrorOr<void> Checks[] = {Verifier.verifyPlan(Plan),
                                Verifier.verifyCost(Plan, Kernel.Cost),
                                Verifier.verifySource(Kernel.Source)};
      for (const ErrorOr<void> &Check : Checks)
        EXPECT_TRUE(Check.hasValue())
            << Entry.Name << ": " << Check.errorMessage();
    }
  }
}

TEST(PlanVerifier, RejectsPlansExceedingDeviceBudgets) {
  // Generate a normal plan for the V100, then verify it against devices
  // whose limits it exceeds: each budget violation must come back as a
  // typed VerificationFailed, not an assert.
  Contraction TC = *Contraction::parseUniform("abcd-aebf-dfce", 32);
  Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue());
  core::KernelPlan Plan(TC, Result->best().Config);
  ASSERT_GT(Plan.threadsPerBlock(), 1u);

  gpu::DeviceSpec TinyThreads = gpu::makeV100();
  TinyThreads.MaxThreadsPerBlock = 32;
  TinyThreads.MaxThreadsPerSM = 64;
  if (Plan.threadsPerBlock() > 32) {
    ErrorOr<void> Check = PlanVerifier(TinyThreads, 8).verifyPlan(Plan);
    ASSERT_FALSE(Check.hasValue());
    EXPECT_EQ(Check.errorCode(), ErrorCode::VerificationFailed);
  }

  gpu::DeviceSpec TinySmem = gpu::makeV100();
  TinySmem.SharedMemPerBlock = 8;
  {
    ErrorOr<void> Check = PlanVerifier(TinySmem, 8).verifyPlan(Plan);
    ASSERT_FALSE(Check.hasValue());
    EXPECT_EQ(Check.errorCode(), ErrorCode::VerificationFailed);
  }

  gpu::DeviceSpec TinyRegs = gpu::makeV100();
  TinyRegs.MaxRegistersPerThread = 1;
  {
    ErrorOr<void> Check = PlanVerifier(TinyRegs, 8).verifyPlan(Plan);
    ASSERT_FALSE(Check.hasValue());
    EXPECT_EQ(Check.errorCode(), ErrorCode::VerificationFailed);
  }
}

TEST(PlanVerifier, RejectsImplausibleCosts) {
  Contraction TC = *Contraction::parseUniform("ij-ik-kj", 64);
  Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue());
  core::KernelPlan Plan(TC, Result->best().Config);
  PlanVerifier Verifier(gpu::makeV100(), 8);

  // The genuine model output passes...
  EXPECT_TRUE(Verifier.verifyCost(Plan, Result->best().Cost).hasValue());

  // ...but a cost below the compulsory-traffic bound, a negative cost and
  // a non-finite cost are each rejected.
  core::TransactionCost TooCheap; // all zero: below any nonzero bound
  EXPECT_EQ(Verifier.verifyCost(Plan, TooCheap).errorCode(),
            ErrorCode::VerificationFailed);

  core::TransactionCost Negative = Result->best().Cost;
  Negative.LoadA = -Negative.LoadA;
  EXPECT_EQ(Verifier.verifyCost(Plan, Negative).errorCode(),
            ErrorCode::VerificationFailed);

  core::TransactionCost NotFinite = Result->best().Cost;
  NotFinite.LoadB = std::numeric_limits<double>::quiet_NaN();
  EXPECT_EQ(Verifier.verifyCost(Plan, NotFinite).errorCode(),
            ErrorCode::VerificationFailed);
}

TEST(PlanVerifier, RejectsTruncatedOrBogusSource) {
  Contraction TC = *Contraction::parseUniform("ij-ik-kj", 64);
  Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue());
  PlanVerifier Verifier(gpu::makeV100(), 8);
  const core::GeneratedSource &Good = Result->best().Source;
  EXPECT_TRUE(Verifier.verifySource(Good).hasValue());

  core::GeneratedSource Empty = Good;
  Empty.KernelSource.clear();
  EXPECT_EQ(Verifier.verifySource(Empty).errorCode(),
            ErrorCode::VerificationFailed);

  // Truncation mid-body leaves unbalanced braces.
  core::GeneratedSource Truncated = Good;
  Truncated.KernelSource.resize(Truncated.KernelSource.size() / 2);
  EXPECT_EQ(Verifier.verifySource(Truncated).errorCode(),
            ErrorCode::VerificationFailed);

  core::GeneratedSource Renamed = Good;
  Renamed.KernelName = "not_the_emitted_name";
  EXPECT_EQ(Verifier.verifySource(Renamed).errorCode(),
            ErrorCode::VerificationFailed);
}

TEST(PlanVerifier, UnrescuedFailureIsTypedNotFatal) {
  // A valid device too small for even the TTGT kernel (16 staged bytes):
  // every fallback rung is verified and rejected, and generate() returns
  // the typed unrescued error.
  gpu::DeviceSpec Starved = gpu::makeV100();
  Starved.SharedMemPerBlock = 8;
  ASSERT_TRUE(Starved.validate().hasValue());
  Cogent Generator(Starved);
  Contraction TC = *Contraction::parseUniform("ab-ac-cb", 24);
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.errorCode(), ErrorCode::VerificationFailed);
  EXPECT_FALSE(Result.error().message().empty());
}

TEST(DifferentialChecker, PassesOnEveryTccgSuiteKernel) {
  // Acceptance criterion: the winning configuration of every TCCG entry
  // executes identically to the reference oracle at clamped extents, with
  // the simulator's transaction counts inside the declared tolerance of
  // the model.
  gpu::DeviceSpec Device = gpu::makeV100();
  Cogent Generator(Device);
  for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
    Contraction TC = Entry.contractionScaled(8);
    ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
    ASSERT_TRUE(Result.hasValue()) << Entry.Name;
    verify::DifferentialOptions Options;
    Options.MaxExtent = 6;
    Options.Trials = 2;
    ErrorOr<verify::DifferentialReport> Report = verify::runDifferentialCheck(
        planContraction(TC, *Result), Result->best().Config, Device, Options);
    ASSERT_TRUE(Report.hasValue())
        << Entry.Name << ": " << Report.errorMessage();
    EXPECT_GE(Report->TrialsRun, Options.Trials) << Entry.Name;
    EXPECT_LE(Report->MaxRelError, 1e-9) << Entry.Name;
    EXPECT_GE(Report->WorstTrafficRatio, 1.0) << Entry.Name;
  }
}

TEST(DifferentialChecker, SpecialValueAndOverflowProbesRun) {
  // NaN/Inf/denormal seeding and the overflow probe always run; a clean
  // run on a healthy schedule proves the oracle comparison is NaN-aware
  // and that overflow-prone extents are rejected upstream.
  Contraction TC = *Contraction::parseUniform("abc-abd-dc", 8);
  Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue());
  verify::DifferentialOptions Options;
  Options.Trials = 3;
  ErrorOr<verify::DifferentialReport> Report = verify::runDifferentialCheck(
      TC, Result->best().Config, gpu::makeV100(), Options);
  ASSERT_TRUE(Report.hasValue()) << Report.errorMessage();
  // Trials + the special-value trial actually executed.
  EXPECT_GE(Report->TrialsRun, 4u);
}

TEST(DifferentialChecker, DeterministicAcrossRuns) {
  Contraction TC = *Contraction::parseUniform("ab-ac-cb", 8);
  Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
  ASSERT_TRUE(Result.hasValue());
  verify::DifferentialOptions Options;
  Options.Seed = 1234;
  ErrorOr<verify::DifferentialReport> R1 = verify::runDifferentialCheck(
      TC, Result->best().Config, gpu::makeV100(), Options);
  ErrorOr<verify::DifferentialReport> R2 = verify::runDifferentialCheck(
      TC, Result->best().Config, gpu::makeV100(), Options);
  ASSERT_TRUE(R1.hasValue());
  ASSERT_TRUE(R2.hasValue());
  EXPECT_EQ(R1->TrialsRun, R2->TrialsRun);
  EXPECT_DOUBLE_EQ(R1->MaxRelError, R2->MaxRelError);
  EXPECT_DOUBLE_EQ(R1->WorstTrafficRatio, R2->WorstTrafficRatio);
}

TEST(DeviceSpecValidate, AcceptsRealDevicesRejectsNonsense) {
  EXPECT_TRUE(gpu::makeV100().validate().hasValue());
  EXPECT_TRUE(gpu::makeP100().validate().hasValue());

  auto expectInvalid = [](gpu::DeviceSpec Device, const char *What) {
    ErrorOr<void> Check = Device.validate();
    ASSERT_FALSE(Check.hasValue()) << What;
    EXPECT_EQ(Check.errorCode(), ErrorCode::InvalidDeviceSpec) << What;
    EXPECT_FALSE(Check.error().message().empty()) << What;
  };

  gpu::DeviceSpec D = gpu::makeV100();
  D.NumSMs = 0;
  expectInvalid(D, "zero SMs");

  D = gpu::makeV100();
  D.SharedMemPerBlock = 0;
  expectInvalid(D, "zero smem per block");

  D = gpu::makeV100();
  D.SharedMemPerBlock = D.SharedMemPerSM + 1;
  expectInvalid(D, "per-block smem above the SM");

  D = gpu::makeV100();
  D.MaxThreadsPerBlock = D.MaxThreadsPerSM + 1;
  expectInvalid(D, "block threads above the SM");

  D = gpu::makeV100();
  D.TransactionBytes = 100; // not a multiple of 128
  expectInvalid(D, "non-power transaction size");

  D = gpu::makeV100();
  D.DramBandwidthGBs = 0.0;
  expectInvalid(D, "zero bandwidth");

  D = gpu::makeV100();
  D.WarpSize = 0;
  expectInvalid(D, "zero warp size");
}

} // namespace

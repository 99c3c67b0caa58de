//===- tests/test_chaos_pipeline.cpp - Seed x site chaos sweeps ------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The chaos harness (ctest label "chaos", registered only when
/// COGENT_CHAOS is configured ON): sweeps deterministic fault-injection
/// seeds across every named site and asserts the pipeline's hard contract
/// under fault — every run terminates within its GenerationBudget, every
/// returned plan passes the PlanVerifier against the real device, and
/// every injected fault is visible in GenerationResult::Counters. Also
/// pins determinism (same seed => same faults => same result).
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"
#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "support/FaultInjection.h"
#include "verify/PlanVerifier.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace cogent;
using core::Cogent;
using core::CogentOptions;
using core::FallbackLevel;
using ir::Contraction;
using support::ChaosSite;

namespace {

uint64_t counterValue(const support::CounterSnapshot &Snapshot,
                      const std::string &Name) {
  for (const support::CounterValue &CV : Snapshot)
    if (Name == CV.Name)
      return CV.Value;
  return 0;
}

/// Runs one chaos-armed generation and asserts the contract: termination
/// within budget, a non-empty verified result, and counter-recorded
/// firings. Returns the per-run firing count of \p Site.
uint64_t runOne(const Cogent &Generator, const Contraction &TC,
                uint64_t Seed, uint32_t Sites, ChaosSite Site,
                const verify::PlanVerifier &Verifier) {
  CogentOptions Options;
  Options.Chaos.Seed = Seed;
  Options.Chaos.Sites = Sites;
  Options.Budget.MaxConfigs = 512;
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC, Options);
  EXPECT_TRUE(Result.hasValue())
      << "seed " << Seed << " site " << support::chaosSiteName(Site) << ": "
      << (Result.hasValue() ? std::string() : Result.errorMessage());
  if (!Result)
    return 0;

  // Terminated within the budget (the sweep completing at all is the
  // wall-clock half of the claim; the config cap is the enumerative half).
  EXPECT_LE(Result->Stats.Examined, 512u);
  EXPECT_FALSE(Result->empty());

  // Every returned plan passes the verifier against the *original* device
  // — chaos only ever shrinks the working limits, so anything verified
  // against the mutated spec must also fit the real one.
  const Contraction &PlanTC = Result->Fallback == FallbackLevel::TtgtBaseline
                                  ? *Result->FallbackContraction
                                  : TC;
  for (const core::GeneratedKernel &Kernel : Result->Kernels) {
    core::KernelPlan Plan(PlanTC, Kernel.Config);
    ErrorOr<void> Checks[] = {Verifier.verifyPlan(Plan),
                              Verifier.verifyCost(Plan, Kernel.Cost),
                              Verifier.verifySource(Kernel.Source)};
    for (const ErrorOr<void> &Check : Checks)
      EXPECT_TRUE(Check.hasValue())
          << "seed " << Seed << " site " << support::chaosSiteName(Site)
          << ": " << Check.errorMessage();
  }

  // Firings are recorded in the run's counter delta, per site and total.
  uint64_t Fired = counterValue(
      Result->Counters,
      std::string("chaos.fired.") + support::chaosSiteName(Site));
  EXPECT_LE(Fired, counterValue(Result->Counters, "chaos.fired"));

  // The result flags agree with the counters for the sites that set them.
  if (Result->EnumerationAborted) {
    EXPECT_GT(counterValue(Result->Counters,
                           "chaos.fired.enumerator-alloc"), 0u);
  }
  if (Result->DeviceMutated) {
    EXPECT_GT(counterValue(Result->Counters, "chaos.fired.device-mutate"),
              0u);
  }
  return Fired;
}

TEST(ChaosPipeline, SweepSeedsAcrossEverySiteStaysVerified) {
  // >= 200 combinations: NumChaosSites (8) x 30 seeds = 240 single-site
  // runs. Each must terminate in budget and return verifier-clean plans.
  gpu::DeviceSpec Device = gpu::makeV100();
  Cogent Generator(Device);
  verify::PlanVerifier Verifier(Device, 8);
  Contraction TC = *Contraction::parseUniform("abc-abd-dc", 24);

  uint64_t TotalFired = 0;
  unsigned Combos = 0;
  for (unsigned SiteIdx = 0; SiteIdx < support::NumChaosSites; ++SiteIdx) {
    ChaosSite Site = static_cast<ChaosSite>(SiteIdx);
    for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
      TotalFired += runOne(Generator, TC, Seed,
                           support::chaosSiteBit(Site), Site, Verifier);
      ++Combos;
    }
  }
  EXPECT_GE(Combos, 200u);
  // The sweep genuinely injected faults: with FireProbability 0.25 and
  // hundreds of queries per pipeline site, a sweep with no firings at all
  // would mean the hooks are disconnected.
  EXPECT_GT(TotalFired, 50u);
}

TEST(ChaosPipeline, AllSitesAtOnceStillRescues) {
  // Every site armed simultaneously — the worst storm the layer can
  // produce — across 20 seeds and two contraction shapes.
  gpu::DeviceSpec Device = gpu::makeV100();
  Cogent Generator(Device);
  verify::PlanVerifier Verifier(Device, 8);
  for (const char *Spec : {"ab-ac-cb", "abcd-aebf-dfce"}) {
    Contraction TC = *Contraction::parseUniform(Spec, 16);
    for (uint64_t Seed = 1; Seed <= 20; ++Seed)
      runOne(Generator, TC, Seed, support::AllChaosSites,
             ChaosSite::CostPerturb, Verifier);
  }
}

TEST(ChaosPipeline, SameSeedInjectsIdenticalFaults) {
  gpu::DeviceSpec Device = gpu::makeV100();
  Cogent Generator(Device);
  Contraction TC = *Contraction::parseUniform("abc-abd-dc", 24);

  auto run = [&](uint64_t Seed) {
    CogentOptions Options;
    Options.Chaos.Seed = Seed;
    Options.Chaos.Sites = support::AllChaosSites;
    ErrorOr<core::GenerationResult> Result = Generator.generate(TC, Options);
    EXPECT_TRUE(Result.hasValue());
    return Result;
  };

  for (uint64_t Seed : {7ull, 19ull, 101ull}) {
    ErrorOr<core::GenerationResult> R1 = run(Seed);
    ErrorOr<core::GenerationResult> R2 = run(Seed);
    ASSERT_TRUE(R1.hasValue() && R2.hasValue());
    EXPECT_EQ(counterValue(R1->Counters, "chaos.fired"),
              counterValue(R2->Counters, "chaos.fired"))
        << "seed " << Seed;
    for (unsigned I = 0; I < support::NumChaosSites; ++I) {
      std::string Name = std::string("chaos.fired.") +
                         support::chaosSiteName(static_cast<ChaosSite>(I));
      EXPECT_EQ(counterValue(R1->Counters, Name),
                counterValue(R2->Counters, Name))
          << "seed " << Seed << " " << Name;
    }
    EXPECT_EQ(R1->verifierRejections(), R2->verifierRejections());
    EXPECT_EQ(R1->lintRejections(), R2->lintRejections());
    EXPECT_EQ(R1->Fallback, R2->Fallback);
    EXPECT_EQ(R1->DeviceMutated, R2->DeviceMutated);
    EXPECT_EQ(R1->EnumerationAborted, R2->EnumerationAborted);
    EXPECT_EQ(R1->best().Config.toString(), R2->best().Config.toString());
  }
}

TEST(ChaosPipeline, SitesAreIndependent) {
  // Arming an extra site must not shift the faults an already-armed site
  // injects: the device-mutate decision for a seed is the same whether it
  // is armed alone or alongside everything else.
  gpu::DeviceSpec Device = gpu::makeV100();
  Cogent Generator(Device);
  Contraction TC = *Contraction::parseUniform("ab-ac-cb", 24);
  for (uint64_t Seed = 1; Seed <= 25; ++Seed) {
    CogentOptions Alone;
    Alone.Chaos.Seed = Seed;
    Alone.Chaos.Sites = support::chaosSiteBit(ChaosSite::DeviceMutate);
    CogentOptions Together;
    Together.Chaos.Seed = Seed;
    Together.Chaos.Sites = support::AllChaosSites;
    ErrorOr<core::GenerationResult> R1 = Generator.generate(TC, Alone);
    ErrorOr<core::GenerationResult> R2 = Generator.generate(TC, Together);
    ASSERT_TRUE(R1.hasValue() && R2.hasValue());
    EXPECT_EQ(R1->DeviceMutated, R2->DeviceMutated) << "seed " << Seed;
  }
}

TEST(ChaosPipeline, CodegenMutateIsCaughtByTheStrictLintGate) {
  // The codegen-mutate site corrupts emitted kernel source *after*
  // emission; the strict KernelLint gate is the only defense on that path.
  // Arm it alone: every run must still come back with a kernel, every
  // rejection must trace to a firing (never a false positive on a clean
  // source), and the kernel finally accepted must lint clean.
  gpu::DeviceSpec Device = gpu::makeV100();
  Cogent Generator(Device);
  Contraction TC = *Contraction::parseUniform("abc-abd-dc", 24);

  uint64_t TotalFired = 0, TotalRejected = 0;
  for (uint64_t Seed = 1; Seed <= 30; ++Seed) {
    CogentOptions Options;
    Options.Chaos.Seed = Seed;
    Options.Chaos.Sites = support::chaosSiteBit(ChaosSite::CodegenMutate);
    ErrorOr<core::GenerationResult> Result = Generator.generate(TC, Options);
    ASSERT_TRUE(Result.hasValue()) << "seed " << Seed;
    EXPECT_FALSE(Result->empty());

    uint64_t Fired =
        counterValue(Result->Counters, "chaos.fired.codegen-mutate");
    EXPECT_LE(Result->lintRejections(), Fired) << "seed " << Seed;

    const Contraction &PlanTC =
        Result->Fallback == FallbackLevel::TtgtBaseline
            ? *Result->FallbackContraction
            : TC;
    core::KernelPlan Plan(PlanTC, Result->best().Config);
    analysis::LintReport Report =
        analysis::lintKernel(Plan, Result->best().Source.KernelSource);
    EXPECT_TRUE(Report.clean())
        << "seed " << Seed << ": "
        << (Report.Findings.empty() ? std::string()
                                    : Report.Findings.front().render());

    TotalFired += Fired;
    TotalRejected += Result->lintRejections();
  }
  // The sweep genuinely mutated sources and the gate genuinely caught
  // some: a zero in either place means the site or the gate is dead.
  EXPECT_GT(TotalFired, 0u);
  EXPECT_GT(TotalRejected, 0u);
}

TEST(ChaosPipeline, ChaosOffRunsAreUnaffected) {
  // The same options object with Sites == 0 must behave exactly like a
  // chaos-free run: no firings, no rejections, no fallback.
  Cogent Generator(gpu::makeV100());
  Contraction TC = *Contraction::parseUniform("abcd-aebf-dfce", 24);
  CogentOptions Options;
  Options.Chaos.Seed = 42; // a seed without sites is inert
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC, Options);
  ASSERT_TRUE(Result.hasValue());
  EXPECT_EQ(counterValue(Result->Counters, "chaos.fired"), 0u);
  EXPECT_EQ(Result->verifierRejections(), 0u);
  EXPECT_EQ(Result->lintRejections(), 0u);
  EXPECT_TRUE(Result->LintFindings.empty());
  EXPECT_EQ(Result->Fallback, FallbackLevel::None);
  EXPECT_FALSE(Result->DeviceMutated);
  EXPECT_FALSE(Result->EnumerationAborted);
}

} // namespace

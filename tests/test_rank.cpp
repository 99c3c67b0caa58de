//===- tests/test_rank.cpp - Lazy ranking equals eager ranking ------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the ranking layer of Cogent::generate (core::rankCandidates): it
/// scores every candidate triple from its tile table and builds a config
/// and a verified KernelPlan only for the head, in rank order, until TopK
/// pass. The
/// oracle here ranks every enumerated candidate the eager way — a
/// KernelPlan and verifyPlan for each, Algorithm 3 written over the plan's
/// accessors, occupancy of the plan's block, stable_sort with the
/// documented comparator — and requires generate()'s kernels to be that
/// list's head. It also pins the laziness (plans checked per call) and the
/// demotion of a head whose plan no longer fits a chaos-mutated device.
///
//===----------------------------------------------------------------------===//

#include "core/Cogent.h"
#include "core/CostModel.h"
#include "core/Enumerator.h"
#include "core/KernelPlan.h"
#include "gpu/Occupancy.h"
#include "suite/TccgSuite.h"
#include "support/FaultInjection.h"
#include "verify/PlanVerifier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

using namespace cogent;
using core::KernelConfig;
using core::KernelPlan;
using core::TransactionCost;
using ir::Contraction;
using ir::Operand;

namespace {

constexpr size_t TopK = 8;

uint64_t counterValue(const support::CounterSnapshot &Snapshot,
                      const std::string &Name) {
  for (const support::CounterValue &CV : Snapshot)
    if (Name == CV.Name)
      return CV.Value;
  return 0;
}

int64_t ceilDiv(int64_t X, int64_t Y) { return (X + Y - 1) / Y; }

/// Algorithm 3 over KernelPlan's accessors: contiguous runs per staged
/// slice times transactions per run, times steps and blocks.
TransactionCost planAlg3(const KernelPlan &Plan, unsigned ElementSize,
                         unsigned TransactionBytes) {
  int64_t ElemsPerTrans = TransactionBytes / ElementSize;
  auto perSlice = [&](int64_t Elems, int64_t Run) {
    Run = std::min(Run, Elems);
    return static_cast<double>(ceilDiv(Elems, Run)) *
           static_cast<double>(ceilDiv(Run, ElemsPerTrans));
  };
  double BlockSteps = static_cast<double>(Plan.numBlocks()) *
                      static_cast<double>(Plan.numSteps());
  TransactionCost Cost;
  Cost.LoadA = perSlice(Plan.sliceElements(Operand::A),
                        Plan.contiguousRun(Operand::A)) *
               BlockSteps;
  Cost.LoadB = perSlice(Plan.sliceElements(Operand::B),
                        Plan.contiguousRun(Operand::B)) *
               BlockSteps;
  Cost.StoreC =
      perSlice(Plan.tbX() * Plan.tbY() * Plan.regX() * Plan.regY(),
               Plan.contiguousRunC()) *
      static_cast<double>(Plan.numBlocks());
  return Cost;
}

/// One candidate scored the eager way: a plan, verifyPlan and Algorithm 3
/// over the plan's accessors.
struct EagerRanked {
  KernelConfig Config;
  TransactionCost Cost;
  gpu::OccupancyResult Occ;
  bool PlanOk = false;
};

/// Scores every candidate whose cost passes verifyCost, in enumeration
/// order, and checks the config-view cost against planAlg3 bit for bit.
std::vector<EagerRanked> scoreEagerly(const Contraction &TC,
                                      const std::vector<KernelConfig> &Configs,
                                      const gpu::DeviceSpec &Device,
                                      unsigned ElementSize,
                                      const std::string &Where) {
  verify::PlanVerifier Verifier(Device, ElementSize);
  std::vector<EagerRanked> Scored;
  for (const KernelConfig &Config : Configs) {
    KernelPlan Plan(TC, Config);
    TransactionCost Oracle =
        planAlg3(Plan, ElementSize, Device.TransactionBytes);
    TransactionCost View = core::estimateTransactions(
        TC, Config, ElementSize, Device.TransactionBytes);
    EXPECT_EQ(View.LoadA, Oracle.LoadA) << Where << " " << Config.toString();
    EXPECT_EQ(View.LoadB, Oracle.LoadB) << Where << " " << Config.toString();
    EXPECT_EQ(View.StoreC, Oracle.StoreC)
        << Where << " " << Config.toString();
    if (!Verifier.verifyCost(Plan, Oracle))
      continue;
    gpu::BlockResources Block;
    Block.ThreadsPerBlock = static_cast<unsigned>(Plan.threadsPerBlock());
    Block.SharedMemBytes = static_cast<unsigned>(Config.smemBytes(ElementSize));
    Block.RegistersPerThread = Config.registersPerThread(ElementSize);
    Scored.push_back({Config, Oracle, gpu::computeOccupancy(Device, Block),
                      Verifier.verifyPlan(Plan).hasValue()});
  }
  return Scored;
}

/// The eager ranking generate() used to do: drop every candidate whose
/// plan fails verifyPlan, then stable_sort the rest with the comparator it
/// documented — resident blocks first, fewer transactions, higher
/// occupancy, more threads.
std::vector<EagerRanked> rankEagerly(const Contraction &TC,
                                     const std::vector<KernelConfig> &Configs,
                                     const gpu::DeviceSpec &Device,
                                     unsigned ElementSize,
                                     const std::string &Where) {
  std::vector<EagerRanked> Ranking;
  for (EagerRanked &R : scoreEagerly(TC, Configs, Device, ElementSize, Where))
    if (R.PlanOk)
      Ranking.push_back(std::move(R));
  std::stable_sort(Ranking.begin(), Ranking.end(),
                   [](const EagerRanked &X, const EagerRanked &Y) {
                     bool XUnfit = X.Occ.BlocksPerSM == 0;
                     bool YUnfit = Y.Occ.BlocksPerSM == 0;
                     if (XUnfit != YUnfit)
                       return YUnfit;
                     if (X.Cost.total() != Y.Cost.total())
                       return X.Cost.total() < Y.Cost.total();
                     if (X.Occ.Occupancy != Y.Occ.Occupancy)
                       return X.Occ.Occupancy > Y.Occ.Occupancy;
                     return X.Config.threadsPerBlock() >
                            Y.Config.threadsPerBlock();
                   });
  return Ranking;
}

std::vector<KernelConfig> enumerateFor(const Contraction &TC,
                                       const gpu::DeviceSpec &Device,
                                       unsigned ElementSize) {
  core::EnumerationOptions Options;
  Options.ElementSize = ElementSize;
  return core::Enumerator(TC, Device, Options).enumerate();
}

} // namespace

// TCCG-48 x {P100, V100} x {fp64, fp32} at paper extents and clamped to 12
// and 24: generate()'s TopK kernels are the eager ranking's head.
TEST(RankOracle, LazyRankEqualsEagerRank) {
  size_t Cases = 0;
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    for (unsigned ElementSize : {8u, 4u}) {
      core::CogentOptions Options;
      Options.ElementSize = ElementSize;
      Options.TopK = TopK;
      // Lint runs after ranking and never rejects on the default path; off
      // keeps the 576 generations fast.
      Options.Lint.Mode = analysis::LintMode::Off;
      for (int64_t Clamp : {int64_t(0), int64_t(12), int64_t(24)}) {
        for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
          Contraction TC =
              Clamp == 0 ? Entry.contraction() : Entry.contractionScaled(Clamp);
          std::string Where = Entry.Name + " on " + Device.Name + " fp" +
                              std::to_string(ElementSize * 8) + " clamp " +
                              std::to_string(Clamp);
          std::vector<EagerRanked> Eager =
              rankEagerly(TC, enumerateFor(TC, Device, ElementSize), Device,
                          ElementSize, Where);
          ErrorOr<core::GenerationResult> Result =
              Generator.generate(TC, Options);
          ASSERT_TRUE(Result.hasValue()) << Where;
          ASSERT_EQ(Result->Fallback, core::FallbackLevel::None) << Where;
          ASSERT_EQ(Result->Kernels.size(), std::min(TopK, Eager.size()))
              << Where;
          for (size_t I = 0; I < Result->Kernels.size(); ++I) {
            const core::GeneratedKernel &Got = Result->Kernels[I];
            const EagerRanked &Want = Eager[I];
            EXPECT_EQ(Got.Config.toString(), Want.Config.toString())
                << Where << " rank " << I;
            EXPECT_EQ(Got.Cost.LoadA, Want.Cost.LoadA) << Where << " " << I;
            EXPECT_EQ(Got.Cost.LoadB, Want.Cost.LoadB) << Where << " " << I;
            EXPECT_EQ(Got.Cost.StoreC, Want.Cost.StoreC) << Where << " " << I;
            EXPECT_EQ(Got.Occupancy.Occupancy, Want.Occ.Occupancy)
                << Where << " " << I;
            EXPECT_EQ(Got.Occupancy.BlocksPerSM, Want.Occ.BlocksPerSM)
                << Where << " " << I;
          }
          ++Cases;
        }
      }
    }
  }
  EXPECT_EQ(Cases, 48u * 2 * 2 * 3);
}

// On the default path no plan is rejected, so each call verifies at most
// TopK plans while the cost model scores every survivor.
TEST(RankLaziness, PlansCheckedAtMostTopKPlusRejections) {
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    for (size_t K : {size_t(1), TopK}) {
      core::CogentOptions Options;
      Options.TopK = K;
      Options.Lint.Mode = analysis::LintMode::Off;
      for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
        std::string Where = Entry.Name + " on " + Device.Name + " TopK " +
                            std::to_string(K);
        ErrorOr<core::GenerationResult> Result =
            Generator.generate(Entry.contraction(), Options);
        ASSERT_TRUE(Result.hasValue()) << Where;
        uint64_t Checked =
            counterValue(Result->Counters, "verifier.plans-checked");
        EXPECT_LE(Checked, K + Result->verifierRejections()) << Where;
        EXPECT_GE(Checked, Result->Kernels.size()) << Where;
        EXPECT_EQ(counterValue(Result->Counters, "cogent.kernels-ranked"),
                  Result->Stats.Survivors)
            << Where;
      }
    }
  }
}

#ifdef COGENT_CHAOS_ENABLED
// The device-mutate chaos site halves the working device's limits after
// enumeration. Where the head of the rank order (rankCandidates' documented
// order, against the mutated device) no longer fits, the emitted kernel is
// the first config in that order whose plan passes verifyPlan there, and
// the skipped head counts as a verifier rejection.
TEST(RankLaziness, MutatedDeviceDemotesToFirstVerifiedConfig) {
  size_t Demoted = 0;
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    // Mirrors the device-mutate site in Cogent::generate.
    gpu::DeviceSpec Mutated = Device;
    Mutated.SharedMemPerBlock = std::max(1024u, Mutated.SharedMemPerBlock / 2);
    Mutated.SharedMemPerSM =
        std::max(Mutated.SharedMemPerBlock, Mutated.SharedMemPerSM / 2);
    Mutated.MaxThreadsPerBlock = std::max(32u, Mutated.MaxThreadsPerBlock / 2);
    Mutated.MaxRegistersPerThread =
        std::max(40u, Mutated.MaxRegistersPerThread / 2);
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      Contraction TC = Entry.contraction();
      std::vector<KernelConfig> Configs = enumerateFor(TC, Device, 8);
      std::vector<EagerRanked> Order =
          scoreEagerly(TC, Configs, Mutated, 8, Entry.Name);
      std::stable_sort(Order.begin(), Order.end(),
                       [](const EagerRanked &X, const EagerRanked &Y) {
                         if (X.Cost.total() != Y.Cost.total())
                           return X.Cost.total() < Y.Cost.total();
                         if (X.Occ.Occupancy != Y.Occ.Occupancy)
                           return X.Occ.Occupancy > Y.Occ.Occupancy;
                         return X.Config.threadsPerBlock() >
                                Y.Config.threadsPerBlock();
                       });
      ASSERT_FALSE(Order.empty()) << Entry.Name;
      if (Order.front().PlanOk)
        continue; // the head still fits: nothing to demote
      auto FirstOk =
          std::find_if(Order.begin(), Order.end(),
                       [](const EagerRanked &R) { return R.PlanOk; });
      if (FirstOk == Order.end())
        continue; // demotes to the fallback chain instead
      // Filtering and a stable order commute: the eager ranking's head.
      EXPECT_EQ(FirstOk->Config.toString(),
                rankEagerly(TC, Configs, Mutated, 8, Entry.Name)
                    .front()
                    .Config.toString())
          << Entry.Name;
      for (uint64_t Seed = 0; Seed < 16; ++Seed) {
        core::CogentOptions Options;
        Options.Lint.Mode = analysis::LintMode::Off;
        Options.Chaos.Seed = Seed;
        Options.Chaos.Sites =
            support::chaosSiteBit(support::ChaosSite::DeviceMutate);
        ErrorOr<core::GenerationResult> Result =
            Generator.generate(TC, Options);
        ASSERT_TRUE(Result.hasValue()) << Entry.Name << " seed " << Seed;
        if (!Result->DeviceMutated)
          continue;
        std::string Where = Entry.Name + " on " + Device.Name + " seed " +
                            std::to_string(Seed);
        ASSERT_EQ(Result->Fallback, core::FallbackLevel::None) << Where;
        EXPECT_EQ(Result->best().Config.toString(),
                  FirstOk->Config.toString())
            << Where;
        EXPECT_GE(Result->verifierRejections(), 1u) << Where;
        EXPECT_FALSE(Result->VerifierNotes.empty()) << Where;
        ++Demoted;
        break; // one mutated seed per entry is enough
      }
    }
  }
  EXPECT_GT(Demoted, 0u) << "no seed mutated the device under an unfit head";
}
#endif // COGENT_CHAOS_ENABLED

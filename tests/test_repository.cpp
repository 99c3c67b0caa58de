//===- tests/test_repository.cpp - Multi-size versions + refinement --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the §IV-B multi-representative-size repository (runtime selection
/// of the closest code version) and the §VI simulation-refined top-K
/// selection.
///
//===----------------------------------------------------------------------===//

#include "core/KernelRepository.h"
#include "gpu/Autotune.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

using namespace cogent;
using core::Cogent;
using core::CogentOptions;
using core::KernelRepository;
using core::ShardedKernelRepository;

namespace {

TEST(KernelRepository, StoresOneVersionPerRepresentative) {
  Cogent Generator(gpu::makeV100());
  KernelRepository Repo(Generator, "ij-ik-kj");
  ASSERT_TRUE(Repo.addRepresentativeUniform(64).hasValue());
  ASSERT_TRUE(Repo.addRepresentativeUniform(2048).hasValue());
  EXPECT_EQ(Repo.numVersions(), 2u);
  EXPECT_EQ(Repo.spec(), "ij-ik-kj");
}

TEST(KernelRepository, RejectsMalformedSpec) {
  Cogent Generator(gpu::makeV100());
  KernelRepository Repo(Generator, "ij-ik");
  EXPECT_FALSE(Repo.addRepresentativeUniform(64).hasValue());
}

TEST(KernelRepository, SelectsNearestRepresentative) {
  Cogent Generator(gpu::makeV100());
  KernelRepository Repo(Generator, "ij-ik-kj");
  ASSERT_TRUE(Repo.addRepresentativeUniform(64).hasValue());
  ASSERT_TRUE(Repo.addRepresentativeUniform(2048).hasValue());

  auto uniform = [](int64_t Extent) {
    return std::vector<std::pair<char, int64_t>>{
        {'i', Extent}, {'j', Extent}, {'k', Extent}};
  };
  EXPECT_EQ(Repo.selectFor(uniform(80)).RepresentativeExtents,
            uniform(64));
  EXPECT_EQ(Repo.selectFor(uniform(1500)).RepresentativeExtents,
            uniform(2048));
  // Log-space midpoint of 64 and 2048 is ~362; below goes small.
  EXPECT_EQ(Repo.selectFor(uniform(300)).RepresentativeExtents,
            uniform(64));
  EXPECT_EQ(Repo.selectFor(uniform(420)).RepresentativeExtents,
            uniform(2048));
}

TEST(KernelRepository, VersionsDifferWhenSizesDemandIt) {
  // A tiny and a large representative should tune differently (the tiny
  // one cannot afford 16-wide tiles on an extent-8 index).
  Cogent Generator(gpu::makeV100());
  KernelRepository Repo(Generator, "ij-ik-kj");
  ASSERT_TRUE(Repo.addRepresentativeUniform(8).hasValue());
  ASSERT_TRUE(Repo.addRepresentativeUniform(4096).hasValue());
  EXPECT_NE(Repo.version(0).Kernel.Config.toString(),
            Repo.version(1).Kernel.Config.toString());
}

TEST(KernelRepository, PerIndexExtentsSupported) {
  Cogent Generator(gpu::makeV100());
  KernelRepository Repo(Generator, "ij-ik-kj");
  std::vector<std::pair<char, int64_t>> Skewed = {
      {'i', 4096}, {'j', 16}, {'k', 256}};
  ASSERT_TRUE(Repo.addRepresentative(Skewed).hasValue());
  EXPECT_EQ(Repo.selectFor(Skewed).RepresentativeExtents, Skewed);
}

TEST(ShardedRepository, MissThenHitReturnsIdenticalPlan) {
  Cogent Generator(gpu::makeV100());
  ShardedKernelRepository Repo(Generator, 8);
  std::vector<std::pair<char, int64_t>> Extents = {
      {'a', 64}, {'b', 64}, {'c', 64}};

  ErrorOr<ShardedKernelRepository::Lookup> Miss =
      Repo.lookupOrGenerate("ab-ac-cb", Extents);
  ASSERT_TRUE(Miss.hasValue()) << Miss.errorMessage();
  EXPECT_FALSE(Miss->CacheHit);
  ErrorOr<ShardedKernelRepository::Lookup> Hit =
      Repo.lookupOrGenerate("ab-ac-cb", Extents);
  ASSERT_TRUE(Hit.hasValue());
  EXPECT_TRUE(Hit->CacheHit);
  EXPECT_EQ(Miss->Kernel.Config.toString(), Hit->Kernel.Config.toString());
  EXPECT_EQ(Repo.hits(), 1u);
  EXPECT_EQ(Repo.misses(), 1u);
  EXPECT_EQ(Repo.size(), 1u);
}

TEST(ShardedRepository, SignatureExcludesPerRunKnobs) {
  // A degraded / chaos-armed request must land on the same cache entry as
  // the plain one: the signature keys on contraction + extents + element
  // size only.
  Cogent Generator(gpu::makeV100());
  ShardedKernelRepository Repo(Generator, 8);
  std::vector<std::pair<char, int64_t>> Extents = {
      {'a', 64}, {'b', 64}, {'c', 64}};
  ASSERT_TRUE(Repo.lookupOrGenerate("ab-ac-cb", Extents).hasValue());

  CogentOptions Degraded;
  Degraded.StartRung = core::FallbackLevel::TtgtBaseline;
  Degraded.Budget.DeadlineMs = 0.001;
  ErrorOr<ShardedKernelRepository::Lookup> Hit =
      Repo.lookupOrGenerate("ab-ac-cb", Extents, &Degraded);
  ASSERT_TRUE(Hit.hasValue());
  EXPECT_TRUE(Hit->CacheHit) << "per-run options must not change the key";
  // Element size IS part of the key.
  CogentOptions Fp32;
  Fp32.ElementSize = 4;
  ErrorOr<ShardedKernelRepository::Lookup> Other =
      Repo.lookupOrGenerate("ab-ac-cb", Extents, &Fp32);
  ASSERT_TRUE(Other.hasValue());
  EXPECT_FALSE(Other->CacheHit);
  EXPECT_EQ(Repo.size(), 2u);
}

TEST(ShardedRepository, GenerateFreshRefreshesWithoutLookup) {
  Cogent Generator(gpu::makeV100());
  ShardedKernelRepository Repo(Generator, 4);
  std::vector<std::pair<char, int64_t>> Extents = {
      {'i', 48}, {'j', 48}, {'k', 48}};
  ASSERT_TRUE(Repo.lookupOrGenerate("ij-ik-kj", Extents).hasValue());
  ErrorOr<ShardedKernelRepository::Lookup> Fresh =
      Repo.generateFresh("ij-ik-kj", Extents);
  ASSERT_TRUE(Fresh.hasValue());
  EXPECT_FALSE(Fresh->CacheHit);
  EXPECT_EQ(Repo.size(), 1u);
  EXPECT_EQ(Repo.hits(), 0u);
  EXPECT_EQ(Repo.misses(), 2u);
}

#ifdef COGENT_CHAOS_ENABLED
TEST(ShardedRepository, ConcurrentChaosStressNoCrossShardPoisoning) {
  // The satellite stress contract: many threads hammering a sharded cache
  // whose hit path is being actively corrupted by the repository-corrupt
  // chaos site. Every lookup must return a valid plan (corruption is a
  // quarantined miss, never served data), the books must balance, and
  // corruption in one shard must never evict entries from another.
  Cogent Generator(gpu::makeV100());
  ShardedKernelRepository Repo(Generator, 8);

  const std::vector<std::pair<std::string,
                              std::vector<std::pair<char, int64_t>>>>
      Workload = {
          {"ab-ac-cb", {{'a', 48}, {'b', 48}, {'c', 48}}},
          {"abc-abd-dc", {{'a', 16}, {'b', 16}, {'c', 16}, {'d', 16}}},
          {"ij-ik-kj", {{'i', 64}, {'j', 32}, {'k', 32}}},
          {"ab-ac-cb", {{'a', 96}, {'b', 24}, {'c', 24}}},
      };

  // Reference plans, generated without chaos.
  std::vector<std::string> Reference;
  for (const auto &[Spec, Extents] : Workload) {
    ErrorOr<ShardedKernelRepository::Lookup> Plan =
        Repo.lookupOrGenerate(Spec, Extents);
    ASSERT_TRUE(Plan.hasValue()) << Plan.errorMessage();
    Reference.push_back(Plan->Kernel.Config.toString());
  }

  constexpr unsigned NumThreads = 8;
  constexpr unsigned LookupsPerThread = 40;
  std::atomic<uint64_t> Bad{0};
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      // Each thread arms its own injector: activation is thread-local, so
      // the fault streams are independent and race-free by construction.
      support::ChaosOptions Chaos;
      Chaos.Seed = 1000 + T;
      Chaos.Sites =
          support::chaosSiteBit(support::ChaosSite::RepositoryCorrupt);
      Chaos.FireProbability = 0.5;
      support::FaultInjector Injector(Chaos);
      support::ScopedChaosActivation Activation(&Injector);
      for (unsigned I = 0; I < LookupsPerThread; ++I) {
        const auto &[Spec, Extents] = Workload[(T + I) % Workload.size()];
        ErrorOr<ShardedKernelRepository::Lookup> Plan =
            Repo.lookupOrGenerate(Spec, Extents);
        if (!Plan ||
            Plan->Kernel.Config.toString() !=
                Reference[(T + I) % Workload.size()])
          Bad.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread &Thread : Threads)
    Thread.join();

  EXPECT_EQ(Bad.load(), 0u)
      << "a lookup returned an error or a non-reference plan under chaos";
  // Books balance: every lookup was a hit or a miss, and every quarantine
  // produced a regenerated entry rather than a loss.
  EXPECT_EQ(Repo.hits() + Repo.misses(),
            uint64_t(NumThreads) * LookupsPerThread + Workload.size());
  EXPECT_GT(Repo.quarantined(), 0u)
      << "the corrupt site never fired; the stress proved nothing";
  EXPECT_EQ(Repo.size(), Workload.size());

  // The workload spans several shards, so the isolation claim above was
  // exercised across shard boundaries.
  size_t Spread = 0;
  for (size_t I = 0; I < Repo.numShards(); ++I)
    Spread += Repo.shardSize(I) > 0 ? 1 : 0;
  EXPECT_GE(Spread, 2u) << "workload unexpectedly hashed to one shard";
}

TEST(ShardedRepository, CorruptHitIsQuarantinedAndRegenerated) {
  Cogent Generator(gpu::makeV100());
  ShardedKernelRepository Repo(Generator, 4);
  std::vector<std::pair<char, int64_t>> Extents = {
      {'a', 48}, {'b', 48}, {'c', 48}};
  ASSERT_TRUE(Repo.lookupOrGenerate("ab-ac-cb", Extents).hasValue());

  // Force a quarantine: with the corrupt site firing at p=1 the next hit
  // must detect the mismatch, evict, and regenerate.
  support::ChaosOptions Chaos;
  Chaos.Sites =
      support::chaosSiteBit(support::ChaosSite::RepositoryCorrupt);
  Chaos.FireProbability = 1.0;
  Chaos.Seed = 3;
  {
    support::FaultInjector Injector(Chaos);
    support::ScopedChaosActivation Activation(&Injector);
    ErrorOr<ShardedKernelRepository::Lookup> Plan =
        Repo.lookupOrGenerate("ab-ac-cb", Extents);
    ASSERT_TRUE(Plan.hasValue());
    EXPECT_TRUE(Plan->Quarantined);
    EXPECT_FALSE(Plan->CacheHit);
  }
  EXPECT_EQ(Repo.quarantined(), 1u);

  // The quarantining lookup regenerated its own entry, so the next lookup
  // is a clean hit.
  ErrorOr<ShardedKernelRepository::Lookup> After =
      Repo.lookupOrGenerate("ab-ac-cb", Extents);
  ASSERT_TRUE(After.hasValue());
  EXPECT_TRUE(After->CacheHit);
}
#endif // COGENT_CHAOS_ENABLED

TEST(RefineTopK, MeasuresEveryCandidate) {
  Cogent Generator(gpu::makeV100());
  ErrorOr<ir::Contraction> TC =
      ir::Contraction::parseUniform("abcd-aebf-dfce", 24);
  ASSERT_TRUE(TC.hasValue());
  CogentOptions Options;
  Options.TopK = 6;
  ErrorOr<core::GenerationResult> Result = Generator.generate(*TC, Options);
  ASSERT_TRUE(Result.hasValue());

  gpu::RefinementResult Refined = gpu::refineTopKBySimulation(
      *TC, *Result, gpu::makeV100(), 8, /*MeasureExtent=*/8);
  ASSERT_EQ(Refined.Candidates.size(), Result->Kernels.size());
  for (const gpu::MeasuredCandidate &Candidate : Refined.Candidates) {
    EXPECT_GT(Candidate.MeasuredGflops, 0.0);
    EXPECT_GT(Candidate.ExactTransactions, 0u);
  }
  EXPECT_LT(Refined.WinnerIndex, Result->Kernels.size());
  // The winner really is the measured argmax.
  for (const gpu::MeasuredCandidate &Candidate : Refined.Candidates)
    EXPECT_LE(Candidate.MeasuredGflops,
              Refined.Candidates[Refined.WinnerIndex].MeasuredGflops);
}

TEST(RefineTopK, ConfirmedFlagMatchesWinner) {
  Cogent Generator(gpu::makeV100());
  ErrorOr<ir::Contraction> TC =
      ir::Contraction::parseUniform("abcdef-gdab-efgc", 16);
  ASSERT_TRUE(TC.hasValue());
  CogentOptions Options;
  Options.TopK = 4;
  ErrorOr<core::GenerationResult> Result = Generator.generate(*TC, Options);
  ASSERT_TRUE(Result.hasValue());
  gpu::RefinementResult Refined = gpu::refineTopKBySimulation(
      *TC, *Result, gpu::makeV100(), 8, /*MeasureExtent=*/6);
  EXPECT_EQ(Refined.ModelPickConfirmed, Refined.WinnerIndex == 0);
}

} // namespace

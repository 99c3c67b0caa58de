//===- tests/test_service_chaos.cpp - Service under fault injection --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service-layer chaos lane: drives GenerationService with every fault
/// injection site armed, across many seeds and from many client threads,
/// and asserts the robustness contract — every request completes with a
/// verified plan or a typed, retry-classified error; nothing hangs,
/// nothing crashes, nothing is silently dropped (the stats conservation
/// law holds under fire). Also pins the deterministic retry-exhaustion
/// path and the circuit breaker's trip/recover state machine.
///
//===----------------------------------------------------------------------===//

#include "service/GenerationService.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace cogent;
using core::FallbackLevel;
using service::GenerationService;
using service::ServiceOptions;
using service::ServiceRequest;
using service::ServiceResult;
using service::ServiceStats;

namespace {

std::vector<ServiceRequest> requestPool() {
  std::vector<ServiceRequest> Pool;
  auto add = [&](const char *Spec, std::vector<std::pair<char, int64_t>> E) {
    ServiceRequest Request;
    Request.Spec = Spec;
    Request.Extents = std::move(E);
    Pool.push_back(std::move(Request));
  };
  add("ab-ac-cb", {{'a', 48}, {'b', 48}, {'c', 48}});
  add("abc-abd-dc", {{'a', 16}, {'b', 16}, {'c', 16}, {'d', 16}});
  add("ij-ik-kj", {{'i', 96}, {'j', 24}, {'k', 64}});
  add("abcd-aebf-dfce",
      {{'a', 8}, {'b', 8}, {'c', 8}, {'d', 8}, {'e', 8}, {'f', 8}});
  return Pool;
}

/// The contract every chaos request is held to: a plan with non-empty
/// source, or an error whose code is typed (never Unknown) — and therefore
/// classifiable by the retry policy.
void checkOutcome(const ErrorOr<ServiceResult> &Result) {
  if (Result) {
    EXPECT_FALSE(Result->Kernel.Source.KernelSource.empty());
    EXPECT_FALSE(Result->Kernel.Config.toString().empty());
  } else {
    EXPECT_NE(Result.errorCode(), ErrorCode::Unknown)
        << Result.errorMessage();
    (void)isTransient(Result.errorCode()); // total over every code
  }
}

TEST(ServiceChaos, AllSitesManySeedsManyClientsNoSilentDrops) {
  const std::vector<ServiceRequest> Pool = requestPool();
  uint64_t TotalCompleted = 0, TotalFailed = 0, TotalQuarantined = 0;

  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    ServiceOptions Options;
    Options.NumWorkers = 8;
    Options.MaxRetries = 2;
    Options.RetryBackoffBaseMs = 0.05;
    Options.RetryBackoffMaxMs = 0.5;
    Options.Generation.Chaos.Seed = Seed;
    Options.Generation.Chaos.Sites = support::AllChaosSites;
    Options.Generation.Chaos.FireProbability = 0.25;
    GenerationService Service(gpu::makeV100(), Options);

    std::atomic<uint64_t> ClientErrors{0};
    std::vector<std::thread> Clients;
    for (unsigned C = 0; C < 4; ++C) {
      Clients.emplace_back([&, C] {
        for (unsigned R = 0; R < 10; ++R) {
          ServiceRequest Request = Pool[(C + R) % Pool.size()];
          // Mixed deadline pressure: unbounded, generous, and tight
          // enough to force degraded rungs mid-sweep.
          if (R % 3 == 1)
            Request.DeadlineMs = 500.0;
          else if (R % 3 == 2)
            Request.DeadlineMs = 4.0;
          ErrorOr<ServiceResult> Result = Service.process(Request);
          checkOutcome(Result);
          if (!Result)
            ClientErrors.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (std::thread &Client : Clients)
      Client.join();

    ServiceStats Stats = Service.stats();
    EXPECT_EQ(Stats.Submitted, 40u) << "seed " << Seed;
    EXPECT_EQ(Stats.Submitted,
              Stats.Completed + Stats.Failed + Stats.ShedQueueFull +
                  Stats.ShedOverloaded + Stats.ShedExpired)
        << "seed " << Seed << ": requests were silently dropped";
    EXPECT_EQ(Stats.Failed, ClientErrors.load()) << "seed " << Seed;
    TotalCompleted += Stats.Completed;
    TotalFailed += Stats.Failed;
    TotalQuarantined += Stats.Quarantined;
  }

  // Across the sweep the service must actually absorb load, not fail it
  // all: the overwhelming majority of chaos-stressed requests complete.
  EXPECT_GT(TotalCompleted, TotalFailed * 10);
  // And with the repository-corrupt site armed at p=0.25 over hundreds of
  // warm hits, quarantines must actually have happened — otherwise this
  // test is not exercising the integrity path at all.
  EXPECT_GT(TotalQuarantined, 0u);
}

TEST(ServiceChaos, RetryExhaustionIsTypedAndCountsAttempts) {
  // Truncate every emission: generation fails VerificationFailed at every
  // rung, every attempt. The service must retry exactly MaxRetries times
  // (the code is transient), then surface the typed error.
  ServiceOptions Options;
  Options.NumWorkers = 1;
  Options.MaxRetries = 2;
  Options.RetryBackoffBaseMs = 0.05;
  Options.RetryBackoffMaxMs = 0.2;
  Options.Generation.Chaos.Seed = 7;
  Options.Generation.Chaos.Sites =
      support::chaosSiteBit(support::ChaosSite::CodegenTruncate);
  Options.Generation.Chaos.FireProbability = 1.0;
  GenerationService Service(gpu::makeV100(), Options);

  ServiceRequest Request;
  Request.Spec = "ab-ac-cb";
  Request.Extents = {{'a', 32}, {'b', 32}, {'c', 32}};
  ErrorOr<ServiceResult> Result = Service.process(Request);
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.errorCode(), ErrorCode::VerificationFailed);
  EXPECT_TRUE(isTransient(Result.errorCode()));
  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Retries, 2u);
  EXPECT_EQ(Stats.Failed, 1u);
}

TEST(ServiceChaos, BreakerTripsToTtgtAndRecovers) {
  // Runs that absorb codegen mutations carry lint/verifier rejections
  // even when the re-emit/fallback machinery rescues them; enough of
  // those in a row must trip the signature's breaker to the TTGT rung,
  // and a dirty half-open probe must re-open it.
  //
  // With BypassCache and MaxRetries=0 every process() of the same
  // signature derives the identical per-attempt chaos seed, so one
  // service's runs are deterministic replicas of each other. Scan base
  // seeds for one whose replica outcome is "succeeds, carrying
  // rejections": three such runs trip the breaker (observable as
  // BreakerTrips==1 with all runs succeeding), and the breaker-degraded
  // TTGT run must survive the same storm.
  ServiceRequest Request;
  Request.Spec = "abc-abd-dc";
  Request.Extents = {{'a', 16}, {'b', 16}, {'c', 16}, {'d', 16}};
  Request.BypassCache = true;

  auto makeService = [](uint64_t Seed) {
    ServiceOptions Options;
    Options.NumWorkers = 1;
    Options.MaxRetries = 0;
    Options.BreakerThreshold = 3;
    Options.BreakerCooldownRequests = 2;
    Options.Generation.Chaos.Seed = Seed;
    Options.Generation.Chaos.Sites =
        support::chaosSiteBit(support::ChaosSite::CodegenMutate);
    Options.Generation.Chaos.FireProbability = 0.6;
    return std::make_unique<GenerationService>(gpu::makeV100(), Options);
  };

  std::unique_ptr<GenerationService> Service;
  uint64_t FoundSeed = 0;
  for (uint64_t Seed = 1; Seed <= 64 && !Service; ++Seed) {
    auto Candidate = makeService(Seed);
    // Trip phase: BreakerThreshold identical full-pipeline runs.
    bool AllSucceeded = true;
    for (unsigned I = 0; I < 3 && AllSucceeded; ++I) {
      ErrorOr<ServiceResult> Result = Candidate->process(Request);
      checkOutcome(Result);
      AllSucceeded = Result.hasValue() && !Result->BreakerDegraded;
    }
    if (!AllSucceeded || Candidate->stats().BreakerTrips != 1)
      continue; // clean runs (no rejections) or outright failures
    // Open phase: the degraded TTGT run must also survive this seed.
    ErrorOr<ServiceResult> Degraded = Candidate->process(Request);
    checkOutcome(Degraded);
    if (!Degraded.hasValue() || !Degraded->BreakerDegraded)
      continue;
    EXPECT_EQ(Degraded->Fallback, FallbackLevel::TtgtBaseline);
    Service = std::move(Candidate);
    FoundSeed = Seed;
  }
  ASSERT_NE(Service, nullptr)
      << "no seed in 1..64 produced rejection-carrying successful runs";

  // Half-open probe: the cooldown (2 requests: the degraded one above
  // plus this admission) lets the next request run the full pipeline.
  // Its chaos replica is identical to the tripping runs — still dirty —
  // so the probe re-opens the breaker and counts another trip.
  ErrorOr<ServiceResult> Probe = Service->process(Request);
  ASSERT_TRUE(Probe.hasValue())
      << "seed " << FoundSeed << ": " << Probe.errorMessage();
  EXPECT_FALSE(Probe->BreakerDegraded); // the probe itself runs full
  EXPECT_EQ(Service->stats().BreakerTrips, 2u) << "seed " << FoundSeed;
  ErrorOr<ServiceResult> DegradedAgain = Service->process(Request);
  ASSERT_TRUE(DegradedAgain.hasValue());
  EXPECT_TRUE(DegradedAgain->BreakerDegraded);
  EXPECT_EQ(Service->stats().BreakerResets, 0u);
}

TEST(ServiceChaos, DeterministicSeedsReproduceStats) {
  // Two single-threaded runs with the same seed must produce identical
  // resilience tallies — the whole point of deterministic chaos.
  auto run = [](uint64_t Seed) {
    ServiceOptions Options;
    Options.NumWorkers = 1;
    Options.MaxRetries = 2;
    Options.RetryBackoffBaseMs = 0.01;
    Options.Generation.Chaos.Seed = Seed;
    Options.Generation.Chaos.Sites = support::AllChaosSites;
    Options.Generation.Chaos.FireProbability = 0.3;
    GenerationService Service(gpu::makeV100(), Options);
    for (const ServiceRequest &Request : requestPool())
      for (int Round = 0; Round < 3; ++Round)
        (void)Service.process(Request);
    ServiceStats Stats = Service.stats();
    return std::vector<uint64_t>{Stats.Completed, Stats.Failed,
                                 Stats.Retries, Stats.CacheHits,
                                 Stats.Quarantined, Stats.BreakerTrips};
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6)); // and the seed actually matters
}

} // namespace

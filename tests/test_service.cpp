//===- tests/test_service.cpp - GenerationService behavior ----------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the resilient generation service (docs/ARCHITECTURE.md §15):
/// admission control and typed load shedding, deadline-driven graceful
/// degradation to cheaper fallback rungs, singleflight coalescing of
/// duplicate in-flight signatures, stop semantics, and the
/// submitted == completed + failed + shed conservation law.
///
/// Timing-sensitive behaviors are pinned with determinism devices rather
/// than sleeps where possible: StartPaused fills the queue without racing
/// the workers, and the degradation thresholds are set so any finite
/// deadline lands in the intended band.
///
//===----------------------------------------------------------------------===//

#include "service/GenerationService.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <vector>

using namespace cogent;
using core::FallbackLevel;
using service::GenerationService;
using service::PendingRequest;
using service::ServiceOptions;
using service::ServiceRequest;
using service::ServiceResult;
using service::ServiceStats;

namespace {

ServiceRequest gemmRequest(int64_t Extent = 64) {
  ServiceRequest Request;
  Request.Spec = "ab-ac-cb";
  Request.Extents = {{'a', Extent}, {'b', Extent}, {'c', Extent}};
  return Request;
}

ServiceRequest ccsdRequest() {
  ServiceRequest Request;
  Request.Spec = "abc-abd-dc";
  Request.Extents = {{'a', 24}, {'b', 24}, {'c', 24}, {'d', 24}};
  return Request;
}

TEST(Service, ColdMissThenWarmHitSamePlan) {
  GenerationService Service(gpu::makeV100());
  ErrorOr<ServiceResult> Cold = Service.process(gemmRequest());
  ASSERT_TRUE(Cold.hasValue()) << Cold.errorMessage();
  EXPECT_FALSE(Cold->CacheHit);
  ErrorOr<ServiceResult> Warm = Service.process(gemmRequest());
  ASSERT_TRUE(Warm.hasValue()) << Warm.errorMessage();
  EXPECT_TRUE(Warm->CacheHit);
  EXPECT_EQ(Cold->Kernel.Config.toString(), Warm->Kernel.Config.toString());
  EXPECT_EQ(Service.repository().size(), 1u);
}

TEST(Service, InvalidSpecIsTypedPermanentError) {
  GenerationService Service(gpu::makeV100());
  ServiceRequest Bad;
  Bad.Spec = "not-a-contraction-at@all-x";
  Bad.Extents = {{'a', 8}};
  ErrorOr<ServiceResult> Result = Service.process(Bad);
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.errorCode(), ErrorCode::InvalidSpec);
  // Permanent errors must not burn retries.
  EXPECT_EQ(Service.stats().Retries, 0u);
}

TEST(Service, QueueFullShedsTyped) {
  ServiceOptions Options;
  Options.StartPaused = true;
  Options.NumWorkers = 2;
  Options.QueueCapacity = 2;
  GenerationService Service(gpu::makeV100(), Options);

  // Paused workers never drain, so the queue fills deterministically.
  ErrorOr<std::shared_ptr<PendingRequest>> A = Service.submit(gemmRequest());
  ErrorOr<std::shared_ptr<PendingRequest>> B = Service.submit(ccsdRequest());
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(B.hasValue());
  ErrorOr<std::shared_ptr<PendingRequest>> C = Service.submit(gemmRequest());
  ASSERT_FALSE(C.hasValue());
  EXPECT_EQ(C.errorCode(), ErrorCode::QueueFull);

  // The shed caller lost nothing but time: resuming completes the admitted
  // requests normally.
  Service.resume();
  EXPECT_TRUE(Service.wait(*A).hasValue());
  EXPECT_TRUE(Service.wait(*B).hasValue());
  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.ShedQueueFull, 1u);
  EXPECT_EQ(Stats.Submitted, 3u);
  EXPECT_EQ(Stats.Completed, 2u);
}

TEST(Service, OverloadedShedsTyped) {
  ServiceOptions Options;
  Options.StartPaused = true;
  Options.QueueCapacity = 64;
  Options.MaxOutstanding = 2;
  GenerationService Service(gpu::makeV100(), Options);

  ErrorOr<std::shared_ptr<PendingRequest>> A = Service.submit(gemmRequest());
  ErrorOr<std::shared_ptr<PendingRequest>> B = Service.submit(ccsdRequest());
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(B.hasValue());
  ErrorOr<std::shared_ptr<PendingRequest>> C = Service.submit(gemmRequest());
  ASSERT_FALSE(C.hasValue());
  EXPECT_EQ(C.errorCode(), ErrorCode::Overloaded);
  EXPECT_EQ(Service.stats().ShedOverloaded, 1u);

  Service.resume();
  EXPECT_TRUE(Service.wait(*A).hasValue());
  EXPECT_TRUE(Service.wait(*B).hasValue());
}

TEST(Service, ConcurrentSubmitsNeverExceedMaxOutstanding) {
  // Paused, so nothing completes: every admission raises Outstanding for
  // good, and the cap must hold exactly under concurrent submits.
  ServiceOptions Options;
  Options.StartPaused = true;
  Options.QueueCapacity = 1 << 12;
  Options.MaxOutstanding = 16;
  GenerationService Service(gpu::makeV100(), Options);

  const unsigned NumThreads = 8, PerThread = 32;
  std::atomic<unsigned> Admitted{0}, Overloaded{0};
  // Release every client at once, so the submits at the cap overlap.
  std::atomic<bool> Go{false};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < NumThreads; ++T)
    Clients.emplace_back([&] {
      while (!Go.load())
        std::this_thread::yield();
      for (unsigned I = 0; I < PerThread; ++I) {
        ErrorOr<std::shared_ptr<PendingRequest>> Handle =
            Service.submit(gemmRequest());
        if (Handle)
          ++Admitted;
        else if (Handle.errorCode() == ErrorCode::Overloaded)
          ++Overloaded;
      }
    });
  Go.store(true);
  for (std::thread &Client : Clients)
    Client.join();

  EXPECT_EQ(Admitted.load(), 16u);
  EXPECT_EQ(Overloaded.load(), NumThreads * PerThread - 16);
  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.ShedOverloaded, 240u);
  EXPECT_EQ(Stats.ShedQueueFull, 0u);
  Service.stop(); // the 16 admitted requests fail typed (ServiceStopped)
}

TEST(Service, NegativeDeadlineShedsAtSubmit) {
  GenerationService Service(gpu::makeV100());
  ServiceRequest Request = gemmRequest();
  Request.DeadlineMs = -1.0;
  ErrorOr<ServiceResult> Result = Service.process(Request);
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.errorCode(), ErrorCode::DeadlineExceeded);
  EXPECT_EQ(Service.stats().ShedExpired, 1u);
}

TEST(Service, TightDeadlineDegradesToMinimalTile) {
  // Any finite deadline lands below this threshold, so the band choice is
  // deterministic, not a race against the clock.
  ServiceOptions Options;
  Options.DegradeMinimalTileMs = 1e9;
  Options.DegradeTtgtMs = 0.0;
  GenerationService Service(gpu::makeV100(), Options);

  ServiceRequest Request = gemmRequest();
  Request.DeadlineMs = 10000.0;
  ErrorOr<ServiceResult> Result = Service.process(Request);
  ASSERT_TRUE(Result.hasValue()) << Result.errorMessage();
  EXPECT_TRUE(Result->DeadlineDegraded);
  EXPECT_FALSE(Result->DeadlineExpired);
  EXPECT_EQ(Result->Kernel.Config.toString().empty(), false);
  EXPECT_EQ(Result->Fallback, FallbackLevel::MinimalTile);
  EXPECT_EQ(Service.stats().DeadlineDegraded, 1u);
}

TEST(Service, ExpiredDeadlineStillProducesTtgtPlan) {
  // The deadline expires while the request sits in the paused queue; a
  // worker picking it up afterwards must degrade to the TTGT rung and
  // answer — never hang, never return an unexplained error.
  ServiceOptions Options;
  Options.StartPaused = true;
  GenerationService Service(gpu::makeV100(), Options);

  ServiceRequest Request = ccsdRequest();
  Request.DeadlineMs = 20.0;
  ErrorOr<std::shared_ptr<PendingRequest>> Handle =
      Service.submit(Request);
  ASSERT_TRUE(Handle.hasValue());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  Service.resume();
  ErrorOr<ServiceResult> Result = Service.wait(*Handle);
  ASSERT_TRUE(Result.hasValue()) << Result.errorMessage();
  EXPECT_TRUE(Result->DeadlineExpired);
  EXPECT_TRUE(Result->DeadlineDegraded);
  EXPECT_EQ(Result->Fallback, FallbackLevel::TtgtBaseline);
  EXPECT_EQ(Service.stats().DeadlineExpired, 1u);
}

TEST(Service, DuplicateSignaturesGenerateOnce) {
  // Six identical cold requests released at once: exactly one generation
  // happens; everyone else coalesces onto the leader's flight or (if the
  // leader already finished) hits the fresh cache entry. Either way the
  // plans are identical.
  ServiceOptions Options;
  Options.StartPaused = true;
  Options.NumWorkers = 4;
  GenerationService Service(gpu::makeV100(), Options);

  std::vector<std::shared_ptr<PendingRequest>> Handles;
  for (int I = 0; I < 6; ++I) {
    ErrorOr<std::shared_ptr<PendingRequest>> Handle =
        Service.submit(gemmRequest());
    ASSERT_TRUE(Handle.hasValue());
    Handles.push_back(*Handle);
  }
  Service.resume();

  std::set<std::string> Configs;
  for (const std::shared_ptr<PendingRequest> &Handle : Handles) {
    ErrorOr<ServiceResult> Result = Service.wait(Handle);
    ASSERT_TRUE(Result.hasValue()) << Result.errorMessage();
    Configs.insert(Result->Kernel.Config.toString());
  }
  EXPECT_EQ(Configs.size(), 1u);
  EXPECT_EQ(Service.repository().misses(), 1u);
  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Coalesced + Stats.CacheHits, 5u);
  EXPECT_EQ(Stats.Completed, 6u);
}

TEST(Service, StopFailsQueuedRequestsTyped) {
  ServiceOptions Options;
  Options.StartPaused = true;
  GenerationService Service(gpu::makeV100(), Options);

  ErrorOr<std::shared_ptr<PendingRequest>> A = Service.submit(gemmRequest());
  ErrorOr<std::shared_ptr<PendingRequest>> B = Service.submit(ccsdRequest());
  ASSERT_TRUE(A.hasValue());
  ASSERT_TRUE(B.hasValue());
  Service.stop();

  ErrorOr<ServiceResult> ResultA = Service.wait(*A);
  ErrorOr<ServiceResult> ResultB = Service.wait(*B);
  ASSERT_FALSE(ResultA.hasValue());
  ASSERT_FALSE(ResultB.hasValue());
  EXPECT_EQ(ResultA.errorCode(), ErrorCode::ServiceStopped);
  EXPECT_EQ(ResultB.errorCode(), ErrorCode::ServiceStopped);

  // Post-stop submissions are rejected at the door, and stop() again is a
  // no-op.
  ErrorOr<ServiceResult> Late = Service.process(gemmRequest());
  ASSERT_FALSE(Late.hasValue());
  EXPECT_EQ(Late.errorCode(), ErrorCode::ServiceStopped);
  Service.stop();

  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Failed, 2u);
  EXPECT_EQ(Stats.Submitted, 3u);
  // The conservation law holds after stop(): the late submit is shed.
  EXPECT_EQ(Stats.Submitted,
            Stats.Completed + Stats.Failed + Stats.ShedQueueFull +
                Stats.ShedOverloaded + Stats.ShedExpired + Stats.ShedStopped);
}

TEST(Service, BatchMixesSuccessAndTypedFailurePerIndex) {
  GenerationService Service(gpu::makeV100());
  std::vector<ServiceRequest> Batch;
  Batch.push_back(gemmRequest());
  ServiceRequest Bad;
  Bad.Spec = "oops";
  Bad.Extents = {{'o', 8}, {'p', 8}, {'s', 8}};
  Batch.push_back(Bad);
  Batch.push_back(ccsdRequest());

  std::vector<ErrorOr<ServiceResult>> Results = Service.processBatch(Batch);
  ASSERT_EQ(Results.size(), 3u);
  EXPECT_TRUE(Results[0].hasValue());
  ASSERT_FALSE(Results[1].hasValue());
  EXPECT_EQ(Results[1].errorCode(), ErrorCode::InvalidSpec);
  EXPECT_TRUE(Results[2].hasValue());
}

TEST(Service, StatsConservationUnderMixedTraffic) {
  // submitted == completed + failed + shed, with nothing silently dropped:
  // the conservation law every other robustness claim leans on.
  ServiceOptions Options;
  Options.StartPaused = true;
  Options.QueueCapacity = 4;
  GenerationService Service(gpu::makeV100(), Options);

  std::vector<std::shared_ptr<PendingRequest>> Handles;
  size_t SubmitErrors = 0;
  for (int I = 0; I < 8; ++I) {
    ServiceRequest Request = I % 2 ? gemmRequest() : ccsdRequest();
    if (I == 5)
      Request.DeadlineMs = -1.0; // expired at submit
    if (I == 6)
      Request.Spec = "zz"; // typed generation failure
    ErrorOr<std::shared_ptr<PendingRequest>> Handle =
        Service.submit(Request);
    if (Handle)
      Handles.push_back(*Handle);
    else
      ++SubmitErrors;
  }
  Service.resume();
  for (const std::shared_ptr<PendingRequest> &Handle : Handles)
    (void)Service.wait(Handle);

  ServiceStats Stats = Service.stats();
  EXPECT_EQ(Stats.Submitted, 8u);
  EXPECT_EQ(Stats.Submitted,
            Stats.Completed + Stats.Failed + Stats.ShedQueueFull +
                Stats.ShedOverloaded + Stats.ShedExpired);
  EXPECT_EQ(SubmitErrors,
            Stats.ShedQueueFull + Stats.ShedOverloaded + Stats.ShedExpired);
}

TEST(Service, DestructorStopsCleanlyWithQueuedWork) {
  // Destroying a paused service with queued work must not hang or crash;
  // the queued requests fail typed (observable through handles that
  // outlive the service only via wait-before-destruction, so here we just
  // prove clean teardown).
  ServiceOptions Options;
  Options.StartPaused = true;
  auto Service = std::make_unique<GenerationService>(gpu::makeV100(),
                                                     Options);
  ASSERT_TRUE(Service->submit(gemmRequest()).hasValue());
  ASSERT_TRUE(Service->submit(ccsdRequest()).hasValue());
  Service.reset();
}

} // namespace

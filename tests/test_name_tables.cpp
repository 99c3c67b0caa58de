//===- tests/test_name_tables.cpp - Enum name-table round-trip tests -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reporting layer serializes three closed string sets — fallback
/// levels, search statuses, roofline bound names — into metrics/trace JSON.
/// These tests pin the tables: every enumerator has a distinct, non-"?"
/// name, every name round-trips through the FromName inverse, and unknown
/// strings are rejected. Extending an enum without extending its table (or
/// the Num* constant) fails here rather than silently emitting "?".
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelRaceProver.h"
#include "core/Cogent.h"
#include "core/Enumerator.h"
#include "gpu/PerfModel.h"
#include "service/Telemetry.h"
#include "support/FaultInjection.h"

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

using namespace cogent;

namespace {

TEST(NameTables, FallbackLevelRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < core::NumFallbackLevels; ++I) {
    auto Level = static_cast<core::FallbackLevel>(I);
    const char *Name = core::fallbackLevelName(Level);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "level " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate fallback level name '" << Name << "'";
    auto Back = core::fallbackLevelFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Level);
  }
}

TEST(NameTables, FallbackLevelRejectsUnknownNames) {
  EXPECT_FALSE(core::fallbackLevelFromName("").has_value());
  EXPECT_FALSE(core::fallbackLevelFromName("?").has_value());
  EXPECT_FALSE(core::fallbackLevelFromName("NONE").has_value());
  EXPECT_FALSE(core::fallbackLevelFromName("minimal-tile ").has_value());
}

TEST(NameTables, SearchStatusRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < core::NumSearchStatuses; ++I) {
    auto Status = static_cast<core::SearchStatus>(I);
    const char *Name = core::searchStatusName(Status);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "status " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate search status name '" << Name << "'";
    auto Back = core::searchStatusFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Status);
  }
}

TEST(NameTables, SearchStatusRejectsUnknownNames) {
  EXPECT_FALSE(core::searchStatusFromName("").has_value());
  EXPECT_FALSE(core::searchStatusFromName("?").has_value());
  EXPECT_FALSE(core::searchStatusFromName("Complete!").has_value());
}

TEST(NameTables, ChaosSiteRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < support::NumChaosSites; ++I) {
    auto Site = static_cast<support::ChaosSite>(I);
    const char *Name = support::chaosSiteName(Site);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "site " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate chaos site name '" << Name << "'";
    auto Back = support::chaosSiteFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Site);
    // Every site's bit is inside the all-sites mask, and distinct.
    EXPECT_NE(support::AllChaosSites & support::chaosSiteBit(Site), 0u);
  }
  EXPECT_FALSE(support::chaosSiteFromName("").has_value());
  EXPECT_FALSE(support::chaosSiteFromName("?").has_value());
  EXPECT_FALSE(support::chaosSiteFromName("COST-PERTURB").has_value());
}

TEST(NameTables, ParseChaosSitesAcceptsListsRejectsUnknowns) {
  EXPECT_EQ(support::parseChaosSites("all"),
            std::optional<uint32_t>(support::AllChaosSites));
  EXPECT_EQ(support::parseChaosSites("cost-perturb"),
            std::optional<uint32_t>(
                support::chaosSiteBit(support::ChaosSite::CostPerturb)));
  EXPECT_EQ(support::parseChaosSites("cost-perturb,device-mutate"),
            std::optional<uint32_t>(
                support::chaosSiteBit(support::ChaosSite::CostPerturb) |
                support::chaosSiteBit(support::ChaosSite::DeviceMutate)));
  EXPECT_FALSE(support::parseChaosSites("no-such-site").has_value());
  EXPECT_FALSE(support::parseChaosSites("cost-perturb,bogus").has_value());
  EXPECT_FALSE(support::parseChaosSites("").has_value());
}

TEST(NameTables, UniformityRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < analysis::NumUniformityClasses; ++I) {
    auto U = static_cast<analysis::Uniformity>(I);
    const char *Name = analysis::uniformityName(U);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "class " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate uniformity name '" << Name << "'";
    auto Back = analysis::uniformityFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, U);
  }
  EXPECT_FALSE(analysis::uniformityFromName("").has_value());
  EXPECT_FALSE(analysis::uniformityFromName("?").has_value());
  EXPECT_FALSE(analysis::uniformityFromName("Uniform").has_value());
}

TEST(NameTables, RaceFindingKindRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < analysis::NumRaceFindingKinds; ++I) {
    auto Kind = static_cast<analysis::RaceFindingKind>(I);
    const char *Name = analysis::raceFindingKindName(Kind);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "kind " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate race finding kind name '" << Name << "'";
    auto Back = analysis::raceFindingKindFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Kind);
  }
  EXPECT_FALSE(analysis::raceFindingKindFromName("").has_value());
  EXPECT_FALSE(analysis::raceFindingKindFromName("?").has_value());
  EXPECT_FALSE(
      analysis::raceFindingKindFromName("write-write-race ").has_value());
}

TEST(NameTables, ErrorCodeRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < NumErrorCodes; ++I) {
    auto Code = static_cast<ErrorCode>(I);
    const char *Name = errorCodeName(Code);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "?") << "code " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate error code name '" << Name << "'";
    auto Back = errorCodeFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Code);
  }
  EXPECT_FALSE(errorCodeFromName("").has_value());
  EXPECT_FALSE(errorCodeFromName("?").has_value());
  EXPECT_FALSE(errorCodeFromName("invalidspec").has_value());
  EXPECT_FALSE(errorCodeFromName("QueueFull ").has_value());
}

TEST(NameTables, ErrorCodeTransienceIsTotalAndPinned) {
  // isTransient is the retry policy's oracle: pin the exact partition so
  // a new enumerator (or an accidental reclassification) fails here
  // rather than silently changing what the service retries.
  const std::set<ErrorCode> Transient = {
      ErrorCode::Overloaded, ErrorCode::QueueFull,
      ErrorCode::VerificationFailed};
  for (unsigned I = 0; I < NumErrorCodes; ++I) {
    auto Code = static_cast<ErrorCode>(I);
    EXPECT_EQ(isTransient(Code), Transient.count(Code) == 1)
        << errorCodeName(Code);
  }
  // Spot-check the load-bearing permanents: retrying these cannot help.
  EXPECT_FALSE(isTransient(ErrorCode::InvalidSpec));
  EXPECT_FALSE(isTransient(ErrorCode::DeadlineExceeded));
  EXPECT_FALSE(isTransient(ErrorCode::BudgetExceeded));
  EXPECT_FALSE(isTransient(ErrorCode::ServiceStopped));
}

TEST(NameTables, PerfBoundTableIsClosedAndDistinct) {
  const char *const *Names = gpu::perfBoundNames();
  ASSERT_NE(Names, nullptr);
  std::set<std::string> Seen;
  size_t Count = 0;
  for (const char *const *N = Names; *N; ++N, ++Count) {
    EXPECT_TRUE(Seen.insert(*N).second) << "duplicate bound name " << *N;
    EXPECT_TRUE(gpu::isPerfBoundName(*N));
  }
  // One name per roofline term: DRAM, compute, shared memory.
  EXPECT_EQ(Count, 3u);
  EXPECT_FALSE(gpu::isPerfBoundName(nullptr));
  EXPECT_FALSE(gpu::isPerfBoundName(""));
  EXPECT_FALSE(gpu::isPerfBoundName("DRAM"));
}

TEST(NameTables, EstimateKernelTimePicksBoundFromTable) {
  gpu::DeviceSpec Device = gpu::makeV100();
  gpu::Calibration Calib = gpu::makeCalibration(Device);

  // Three profiles engineered so each roofline term dominates in turn.
  gpu::KernelProfile DramHeavy;
  DramHeavy.Flops = 1e6;
  DramHeavy.DramBytes = 1e12;
  gpu::KernelProfile ComputeHeavy;
  ComputeHeavy.Flops = 1e13;
  ComputeHeavy.DramBytes = 1e3;
  gpu::KernelProfile SmemHeavy;
  SmemHeavy.Flops = 1e3;
  SmemHeavy.DramBytes = 1e3;
  SmemHeavy.SmemBytes = 1e13;

  for (const gpu::KernelProfile &Profile :
       {DramHeavy, ComputeHeavy, SmemHeavy}) {
    gpu::PerfEstimate Est = gpu::estimateKernelTime(Device, Calib, Profile);
    EXPECT_TRUE(gpu::isPerfBoundName(Est.Bound))
        << "Bound '" << Est.Bound << "' not in perfBoundNames()";
  }
  EXPECT_STREQ(gpu::estimateKernelTime(Device, Calib, DramHeavy).Bound,
               "dram");
  EXPECT_STREQ(gpu::estimateKernelTime(Device, Calib, ComputeHeavy).Bound,
               "compute");
  EXPECT_STREQ(gpu::estimateKernelTime(Device, Calib, SmemHeavy).Bound,
               "smem");
}

TEST(NameTables, RequestEventKindRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < service::NumRequestEventKinds; ++I) {
    auto Kind = static_cast<service::RequestEventKind>(I);
    const char *Name = service::requestEventKindName(Kind);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "unknown") << "kind " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate event kind name '" << Name << "'";
    auto Back = service::requestEventKindFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Kind);
    // The trace instant is the kind name under the "service." prefix.
    EXPECT_EQ(std::string(service::requestEventTraceName(Kind)),
              std::string("service.") + Name);
  }
  EXPECT_FALSE(service::requestEventKindFromName("").has_value());
  EXPECT_FALSE(service::requestEventKindFromName("Submitted").has_value());
  EXPECT_FALSE(service::requestEventKindFromName("shed ").has_value());
  EXPECT_FALSE(
      service::requestEventKindFromName("service.shed").has_value());
}

// The timeline-completeness law leans on exactly this terminal set; a new
// terminal kind must update both isTerminalEvent and the chaos tests.
TEST(NameTables, RequestEventTerminalSetIsPinned) {
  unsigned Terminals = 0;
  for (unsigned I = 0; I < service::NumRequestEventKinds; ++I)
    Terminals +=
        service::isTerminalEvent(static_cast<service::RequestEventKind>(I))
            ? 1
            : 0;
  EXPECT_EQ(Terminals, 3u);
  EXPECT_TRUE(service::isTerminalEvent(service::RequestEventKind::Shed));
  EXPECT_TRUE(service::isTerminalEvent(service::RequestEventKind::Completed));
  EXPECT_TRUE(service::isTerminalEvent(service::RequestEventKind::Failed));
  EXPECT_FALSE(
      service::isTerminalEvent(service::RequestEventKind::Submitted));
  EXPECT_FALSE(service::isTerminalEvent(service::RequestEventKind::Backoff));
}

TEST(NameTables, BreakerStateRoundTrips) {
  std::set<std::string> Seen;
  for (unsigned I = 0; I < service::NumBreakerStates; ++I) {
    auto State = static_cast<service::BreakerState>(I);
    const char *Name = service::breakerStateName(State);
    ASSERT_NE(Name, nullptr);
    EXPECT_STRNE(Name, "unknown") << "state " << I << " has no table entry";
    EXPECT_TRUE(Seen.insert(Name).second)
        << "duplicate breaker state name '" << Name << "'";
    auto Back = service::breakerStateFromName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, State);
  }
  EXPECT_FALSE(service::breakerStateFromName("").has_value());
  EXPECT_FALSE(service::breakerStateFromName("half_open").has_value());
  EXPECT_FALSE(service::breakerStateFromName("OPEN").has_value());
}

} // namespace

//===- tests/test_enumerator.cpp - Algorithm-2 enumeration tests -----------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Enumerator.h"
#include "core/KernelPlan.h"
#include "gpu/Occupancy.h"
#include "suite/TccgSuite.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace cogent;
using core::EnumerationOptions;
using core::EnumerationStats;
using core::Enumerator;
using core::KernelConfig;
using ir::Contraction;
using ir::Operand;

namespace {

Contraction eq1(int64_t Extent = 72) {
  ErrorOr<Contraction> TC =
      Contraction::parseUniform("abcd-aebf-dfce", Extent);
  EXPECT_TRUE(TC.hasValue());
  return *TC;
}

TEST(Enumerator, ProducesOnlyValidConfigs) {
  Contraction TC = eq1();
  gpu::DeviceSpec Device = gpu::makeV100();
  Enumerator Enum(TC, Device);
  std::vector<KernelConfig> Configs = Enum.enumerate();
  ASSERT_FALSE(Configs.empty());
  for (const KernelConfig &Config : Configs)
    EXPECT_EQ(Config.validate(TC), "") << Config.toString();
}

TEST(Enumerator, RespectsHardwareLimits) {
  Contraction TC = eq1();
  gpu::DeviceSpec Device = gpu::makeV100();
  EnumerationOptions Options;
  Enumerator Enum(TC, Device, Options);
  for (const KernelConfig &Config : Enum.enumerate()) {
    EXPECT_LE(Config.threadsPerBlock(), Device.MaxThreadsPerBlock);
    EXPECT_LE(Config.smemBytes(8),
              static_cast<int64_t>(Device.SharedMemPerBlock));
    EXPECT_LE(Config.registersPerThread(8), Device.MaxRegistersPerThread);
  }
}

TEST(Enumerator, TBxAlwaysLedByOutputFvi) {
  Contraction TC = eq1();
  Enumerator Enum(TC, gpu::makeV100());
  for (const KernelConfig &Config : Enum.enumerate()) {
    ASSERT_FALSE(Config.TBx.empty());
    EXPECT_EQ(Config.TBx.front().Name, 'a');
  }
}

TEST(Enumerator, FviConstraintHolds) {
  // ccsd_10: both input FVIs are internal (e in A, f in B); with the FVI
  // rule enabled every config must stage them in TBk.
  ErrorOr<Contraction> TC = Contraction::parseUniform("abcd-eafd-fbec", 72);
  ASSERT_TRUE(TC.hasValue());
  EnumerationOptions Options;
  Options.EnforceFviConstraints = true;
  Enumerator Enum(*TC, gpu::makeV100(), Options);
  std::vector<KernelConfig> Configs = Enum.enumerate();
  ASSERT_FALSE(Configs.empty());
  for (const KernelConfig &Config : Configs) {
    auto inTbk = [&](char Name) {
      for (const core::IndexTile &T : Config.TBk)
        if (T.Name == Name)
          return true;
      return false;
    };
    EXPECT_TRUE(inTbk('e')) << Config.toString();
    EXPECT_TRUE(inTbk('f')) << Config.toString();
  }
}

TEST(Enumerator, MinBlocksConstraintHolds) {
  Contraction TC = eq1();
  gpu::DeviceSpec Device = gpu::makeV100();
  EnumerationOptions Options;
  Options.MinThreadBlocks = 500;
  Enumerator Enum(TC, Device, Options);
  for (const KernelConfig &Config : Enum.enumerate())
    EXPECT_GE(Config.numThreadBlocks(TC), 500);
}

TEST(Enumerator, DisablingConstraintsGrowsTheSpace) {
  Contraction TC = eq1();
  gpu::DeviceSpec Device = gpu::makeV100();
  EnumerationOptions Strict;
  EnumerationOptions Loose;
  Loose.EnforceFviConstraints = false;
  Loose.EnforceMinBlocks = false;
  Loose.MinOccupancy = 0.0;
  size_t StrictCount = Enumerator(TC, Device, Strict).enumerate().size();
  size_t LooseCount = Enumerator(TC, Device, Loose).enumerate().size();
  EXPECT_GE(LooseCount, StrictCount);
}

TEST(Enumerator, StatsAreConsistent) {
  Contraction TC = eq1();
  Enumerator Enum(TC, gpu::makeV100());
  EnumerationStats Stats;
  std::vector<KernelConfig> Configs = Enum.enumerate(&Stats);
  EXPECT_EQ(Stats.Survivors, Configs.size());
  EXPECT_EQ(Stats.RawConfigs, Stats.InvalidConfigs + Stats.HardwarePruned +
                                  Stats.PerformancePruned + Stats.Survivors);
  EXPECT_GT(Stats.prunedFraction(), 0.0);
  EXPECT_LT(Stats.prunedFraction(), 1.0);
}

TEST(Enumerator, Deterministic) {
  Contraction TC = eq1();
  Enumerator Enum(TC, gpu::makeV100());
  std::vector<KernelConfig> First = Enum.enumerate();
  std::vector<KernelConfig> Second = Enum.enumerate();
  ASSERT_EQ(First.size(), Second.size());
  for (size_t I = 0; I < First.size(); ++I)
    EXPECT_EQ(First[I].toString(), Second[I].toString());
}

TEST(Enumerator, NoDuplicateConfigs) {
  Contraction TC = eq1();
  Enumerator Enum(TC, gpu::makeV100());
  std::set<std::string> Seen;
  for (const KernelConfig &Config : Enum.enumerate())
    EXPECT_TRUE(Seen.insert(Config.toString()).second)
        << "duplicate " << Config.toString();
}

TEST(Enumerator, TinyProblemRelaxesInsteadOfFailing) {
  // A 4x4 GEMM cannot satisfy the minimum-thread-block rule; relaxation
  // must still return something runnable.
  ErrorOr<Contraction> TC = Contraction::parseUniform("ij-ik-kj", 4);
  ASSERT_TRUE(TC.hasValue());
  Enumerator Enum(*TC, gpu::makeV100());
  std::vector<KernelConfig> Configs = Enum.enumerate();
  EXPECT_FALSE(Configs.empty());
}

TEST(Enumerator, OutputFviInBSwapsSides) {
  ErrorOr<Contraction> TC = Contraction::parseUniform("abcd-ebcd-ea", 72);
  ASSERT_TRUE(TC.hasValue());
  Enumerator Enum(*TC, gpu::makeV100());
  std::vector<KernelConfig> Configs = Enum.enumerate();
  ASSERT_FALSE(Configs.empty());
  for (const KernelConfig &Config : Configs)
    EXPECT_EQ(Config.XInput, Operand::B);
}

TEST(Enumerator, HandlesContractionWithoutInternals) {
  ErrorOr<Contraction> TC = Contraction::parseUniform("ij-i-j", 128);
  ASSERT_TRUE(TC.hasValue());
  Enumerator Enum(*TC, gpu::makeV100());
  std::vector<KernelConfig> Configs = Enum.enumerate();
  ASSERT_FALSE(Configs.empty());
  for (const KernelConfig &Config : Configs)
    EXPECT_TRUE(Config.TBk.empty());
}

TEST(Enumerator, NaiveSearchSpaceMatchesPaper) {
  // §IV: Eq. 1 has (4^4 x 2) x 6^5 = 3,981,312 naive configurations.
  EXPECT_DOUBLE_EQ(Enumerator::naiveSearchSpace(eq1()), 3981312.0);
}

TEST(Enumerator, PrunedFractionSubstantial) {
  // The paper prunes ~97% of configurations; our domain-restricted raw set
  // is already tight, but pruning must still bite on big contractions.
  ir::Contraction TC = suite::suiteEntry(40).contraction(); // sd1_1
  Enumerator Enum(TC, gpu::makeV100());
  EnumerationStats Stats;
  Enum.enumerate(&Stats);
  EXPECT_GT(Stats.prunedFraction(), 0.25);
}

/// Sweep: enumeration succeeds and yields valid configs for every suite
/// entry on both devices.
class EnumerateSuite : public ::testing::TestWithParam<int> {};

TEST_P(EnumerateSuite, EveryEntryEnumerable) {
  ir::Contraction TC = suite::suiteEntry(GetParam()).contraction();
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    Enumerator Enum(TC, Device);
    std::vector<KernelConfig> Configs = Enum.enumerate();
    ASSERT_FALSE(Configs.empty()) << TC.toString();
    // Spot-check structural validity of a few.
    size_t Stride = std::max<size_t>(1, Configs.size() / 8);
    for (size_t I = 0; I < Configs.size(); I += Stride)
      EXPECT_EQ(Configs[I].validate(TC), "");
  }
}

INSTANTIATE_TEST_SUITE_P(Tccg, EnumerateSuite, ::testing::Range(1, 49));

/// The materialising search the enumerator ran before candidates became
/// triples: a KernelConfig for every examined member of the product of
/// \p Partials' lists (X, then Y, then K), pruned with the config's own
/// accessors. Honors MaxConfigs (not DeadlineMs) and relaxation.
std::vector<KernelConfig> materialisingSearch(const Contraction &TC,
                                              const gpu::DeviceSpec &Device,
                                              EnumerationOptions Options,
                                              const core::CandidateSet &Partials,
                                              EnumerationStats &Stats) {
  if (Options.MinThreadBlocks == 0)
    Options.MinThreadBlocks = 2 * static_cast<int64_t>(Device.NumSMs);
  Stats = EnumerationStats();
  Stats.RawConfigs = static_cast<uint64_t>(Partials.X.size()) *
                     Partials.Y.size() * Partials.K.size();
  Operand XInput = Partials.XInput;
  Operand YInput = XInput == Operand::A ? Operand::B : Operand::A;
  auto listContains = [](const std::vector<core::IndexTile> &List, char Name) {
    for (const core::IndexTile &T : List)
      if (T.Name == Name)
        return true;
    return false;
  };
  auto passesFvi = [&](const KernelConfig &Config) {
    auto covers = [&](char Fvi, const std::vector<core::IndexTile> &TBList) {
      if (TC.extent(Fvi) == 1)
        return true;
      if (TC.isInternal(Fvi))
        return listContains(Config.TBk, Fvi);
      return listContains(TBList, Fvi) || Config.tileOf(Fvi) > 1;
    };
    return covers(TC.fvi(XInput), Config.TBx) &&
           covers(TC.fvi(YInput), Config.TBy);
  };
  std::vector<KernelConfig> Survivors, PerfPruned;
  for (const core::PartialConfig &X : Partials.X)
    for (const core::PartialConfig &Y : Partials.Y)
      for (const core::PartialConfig &K : Partials.K) {
        if (Options.MaxConfigs != 0 && Stats.Examined >= Options.MaxConfigs) {
          Stats.Status = core::SearchStatus::ConfigCapHit;
          goto done;
        }
        ++Stats.Examined;
        KernelConfig Config;
        Config.XInput = XInput;
        Config.TBx = X.TB;
        Config.RegX = X.Reg;
        Config.TBy = Y.TB;
        Config.RegY = Y.Reg;
        Config.TBk = K.TB;
        if (!Config.validate(TC).empty()) {
          ++Stats.InvalidConfigs;
          continue;
        }
        int64_t Threads = Config.threadsPerBlock();
        int64_t Smem = Config.smemBytes(Options.ElementSize);
        unsigned Regs = Config.registersPerThread(Options.ElementSize);
        if (Threads > Device.MaxThreadsPerBlock ||
            Smem > static_cast<int64_t>(Device.SharedMemPerBlock) ||
            Regs > Device.MaxRegistersPerThread) {
          ++Stats.HardwarePruned;
          continue;
        }
        bool PerfOk = !Options.EnforceFviConstraints || passesFvi(Config);
        if (PerfOk && Options.EnforceMinBlocks &&
            Config.numThreadBlocks(TC) < Options.MinThreadBlocks)
          PerfOk = false;
        if (PerfOk && Options.MinOccupancy > 0.0) {
          gpu::BlockResources Block;
          Block.ThreadsPerBlock = static_cast<unsigned>(Threads);
          Block.SharedMemBytes = static_cast<unsigned>(Smem);
          Block.RegistersPerThread = Regs;
          PerfOk = gpu::computeOccupancy(Device, Block).Occupancy >=
                   Options.MinOccupancy;
        }
        if (!PerfOk) {
          ++Stats.PerformancePruned;
          PerfPruned.push_back(std::move(Config));
          continue;
        }
        Survivors.push_back(std::move(Config));
      }
done:
  Stats.Survivors = Survivors.size();
  if (Survivors.empty())
    return PerfPruned;
  return Survivors;
}

void expectSameStats(const EnumerationStats &Got, const EnumerationStats &Want,
                     const std::string &Where) {
  EXPECT_EQ(Got.RawConfigs, Want.RawConfigs) << Where;
  EXPECT_EQ(Got.InvalidConfigs, Want.InvalidConfigs) << Where;
  EXPECT_EQ(Got.HardwarePruned, Want.HardwarePruned) << Where;
  EXPECT_EQ(Got.PerformancePruned, Want.PerformancePruned) << Where;
  EXPECT_EQ(Got.Survivors, Want.Survivors) << Where;
  EXPECT_EQ(Got.Examined, Want.Examined) << Where;
  EXPECT_EQ(Got.Status, Want.Status) << Where;
}

// The compact search keeps the same candidates, in the same order, with the
// same stats as materialising every examined config: TCCG-48 x {P100,
// V100} x {fp64, fp32} under the default, loose, unreachable-min-blocks
// (relaxation) and config-capped options. Each survivor's tile table
// equals its built config's.
TEST(SearchOracle, CompactSearchEqualsMaterialisingSearch) {
  std::vector<std::pair<std::string, EnumerationOptions>> Variants;
  Variants.push_back({"default", {}});
  EnumerationOptions Loose;
  Loose.EnforceFviConstraints = false;
  Loose.EnforceMinBlocks = false;
  Loose.MinOccupancy = 0.0;
  Variants.push_back({"loose", Loose});
  EnumerationOptions Relax;
  Relax.MinThreadBlocks = int64_t(1) << 60;
  Variants.push_back({"relax", Relax});
  for (uint64_t Cap : {1u, 3u, 100u}) {
    EnumerationOptions Capped;
    Capped.MaxConfigs = Cap;
    Variants.push_back({"cap" + std::to_string(Cap), Capped});
  }
  size_t Cases = 0, Relaxed = 0;
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()})
    for (unsigned ElementSize : {8u, 4u})
      for (const auto &[Name, Base] : Variants)
        for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
          std::string Where = Entry.Name + " on " + Device.Name + " fp" +
                              std::to_string(ElementSize * 8) + " " + Name;
          Contraction TC = Entry.contraction();
          EnumerationOptions Options = Base;
          Options.ElementSize = ElementSize;
          EnumerationStats Got;
          core::CandidateSet Set =
              Enumerator(TC, Device, Options).search(&Got);
          EnumerationStats Want;
          std::vector<KernelConfig> Reference =
              materialisingSearch(TC, Device, Options, Set, Want);
          expectSameStats(Got, Want, Where);
          ASSERT_EQ(Set.size(), Reference.size()) << Where;
          for (size_t I = 0; I < Set.size(); ++I) {
            KernelConfig Built = Set.config(Set.Triples[I]);
            ASSERT_EQ(Built.toString(), Reference[I].toString())
                << Where << " #" << I;
            core::TileTable FromTriple = Set.tileTable(Set.Triples[I]);
            core::TileTable FromConfig = Built.tileTable(TC);
            EXPECT_EQ(FromTriple.Tile, FromConfig.Tile) << Where << " #" << I;
            EXPECT_EQ(FromTriple.Blocks, FromConfig.Blocks) << Where;
            EXPECT_EQ(FromTriple.Steps, FromConfig.Steps) << Where;
          }
          Relaxed += Got.Survivors == 0 && !Set.empty();
          ++Cases;
        }
  EXPECT_EQ(Cases, 48u * 2 * 2 * 6);
  EXPECT_GT(Relaxed, 0u) << "no case exercised relaxation";
}

// enumerate() is search() with every triple built.
TEST(SearchOracle, EnumerateBuildsEveryTriple) {
  Contraction TC = eq1();
  Enumerator Enum(TC, gpu::makeV100());
  core::CandidateSet Set = Enum.search();
  std::vector<KernelConfig> Configs = Enum.enumerate();
  ASSERT_EQ(Configs.size(), Set.size());
  for (size_t I = 0; I < Configs.size(); ++I)
    EXPECT_EQ(Configs[I].toString(), Set.config(Set.Triples[I]).toString());
}

} // namespace

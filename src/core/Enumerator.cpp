//===- core/Enumerator.cpp ----------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/Enumerator.h"

#include "gpu/Occupancy.h"
#include "support/Counters.h"
#include "support/FaultInjection.h"
#include "support/Trace.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <chrono>
#include <cmath>
#include <new>
#include <set>
#include <string>

using namespace cogent;
using namespace cogent::core;
using cogent::ir::Contraction;
using cogent::ir::Operand;

// Mirrors of EnumerationStats as process-wide monotonic counters (bulk-added
// once per enumerate() run so they stay exactly in sync with the per-run
// stats and cost nothing in the candidate loop).
COGENT_COUNTER(NumRawConfigs, "enumerator.raw-configs",
               "Cartesian-product size of partial configurations");
COGENT_COUNTER(NumExamined, "enumerator.examined",
               "full configurations examined");
COGENT_COUNTER(NumInvalid, "enumerator.invalid",
               "configurations rejected as structurally invalid");
COGENT_COUNTER(NumHardwarePruned, "enumerator.hardware-pruned",
               "configurations pruned by hardware limits");
COGENT_COUNTER(NumPerformancePruned, "enumerator.performance-pruned",
               "configurations pruned by performance constraints");
COGENT_COUNTER(NumSurvivors, "enumerator.survivors",
               "configurations surviving all pruning");
COGENT_COUNTER(NumRelaxations, "enumerator.relaxations",
               "runs that fell back to performance-pruned candidates");
COGENT_COUNTER(NumBudgetTrips, "enumerator.budget-trips",
               "enumeration runs stopped early by a resource budget");

namespace {

/// The paper's thread-block and register tile sizes (§IV-A).
constexpr int64_t TBSizes[] = {4, 8, 16};
constexpr int64_t RegSizes[] = {2, 4, 6, 8};

std::string keyOf(const std::vector<IndexTile> &List) {
  // Order-insensitive beyond the first element (the forced coalescing
  // index): sort the tail so rotations that produce the same set collapse.
  std::string Key;
  std::vector<std::string> Tail;
  for (size_t I = 0; I < List.size(); ++I) {
    std::string Entry;
    Entry += List[I].Name;
    Entry += ':';
    Entry += std::to_string(List[I].Tile);
    if (I == 0)
      Key += Entry;
    else
      Tail.push_back(Entry);
  }
  std::sort(Tail.begin(), Tail.end());
  for (const std::string &Entry : Tail)
    Key += "," + Entry;
  return Key;
}

std::string keyOf(const PartialConfig &Partial) {
  return keyOf(Partial.TB) + "|" + keyOf(Partial.Reg);
}

/// Greedily fills a tile list toward \p Target by walking \p Pool rotated to
/// start at \p StartIdx, exactly as Algorithm 2 walks an input's indices
/// from s_idx to the SVI and then wraps. \p Product carries the product of
/// tiles already placed (from a forced first index).
std::vector<IndexTile> fillToward(const Contraction &TC,
                                  const std::vector<char> &Pool,
                                  size_t StartIdx, int64_t Target,
                                  std::vector<IndexTile> Seed,
                                  int64_t Product) {
  for (size_t Step = 0; Step < Pool.size() && Product < Target; ++Step) {
    char Name = Pool[(StartIdx + Step) % Pool.size()];
    int64_t Remaining = Target / Product;
    if (Remaining <= 1)
      break;
    int64_t Tile = std::min<int64_t>(TC.extent(Name), Remaining);
    if (Tile < 1)
      Tile = 1;
    Seed.push_back({Name, Tile});
    Product *= Tile;
  }
  return Seed;
}

/// Enumerates (TB, Reg) partials for one side. \p Forced, when non-zero, is
/// an index that must lead the TB list (the output FVI on the X side).
/// \p Pool holds the side's remaining external indices in the input
/// tensor's own order (FVI -> SVI).
std::vector<PartialConfig>
enumerateSide(const Contraction &TC, char Forced,
              const std::vector<char> &Pool) {
  std::vector<PartialConfig> Result;
  std::set<std::string> Seen;

  auto emit = [&](PartialConfig Partial) {
    std::string Key = keyOf(Partial);
    if (Seen.insert(Key).second)
      Result.push_back(std::move(Partial));
  };

  std::vector<std::vector<IndexTile>> TBCandidates;
  std::set<std::string> SeenTB;
  auto emitTB = [&](std::vector<IndexTile> TB) {
    if (SeenTB.insert(keyOf(TB)).second)
      TBCandidates.push_back(std::move(TB));
  };

  for (int64_t TBSize : TBSizes) {
    std::vector<IndexTile> Seed;
    int64_t Product = 1;
    if (Forced != 0) {
      int64_t Tile = std::min<int64_t>(TC.extent(Forced), TBSize);
      Seed.push_back({Forced, Tile});
      Product = Tile;
    }
    if (Pool.empty()) {
      emitTB(Seed);
      continue;
    }
    for (size_t StartIdx = 0; StartIdx < Pool.size(); ++StartIdx)
      emitTB(fillToward(TC, Pool, StartIdx, TBSize, Seed, Product));
  }
  // A side with no indices at all still contributes one (empty) candidate.
  if (TBCandidates.empty())
    TBCandidates.push_back({});

  for (const std::vector<IndexTile> &TB : TBCandidates) {
    // The leftovers available for register tiling: externals of this side
    // that the TB list did not consume.
    std::vector<char> Leftover;
    for (char Name : Pool) {
      bool Consumed = false;
      for (const IndexTile &T : TB)
        Consumed |= T.Name == Name;
      if (!Consumed)
        Leftover.push_back(Name);
    }

    // Register tile absent (REG size 1) is always an option.
    emit({TB, {}});

    if (Leftover.empty())
      continue;
    std::set<std::string> SeenReg;
    for (int64_t RegSize : RegSizes) {
      for (size_t StartIdx = 0; StartIdx < Leftover.size(); ++StartIdx) {
        std::vector<IndexTile> Reg =
            fillToward(TC, Leftover, StartIdx, RegSize, {}, 1);
        if (Reg.empty())
          continue;
        if (SeenReg.insert(keyOf(Reg)).second)
          emit({TB, Reg});
      }
    }
  }
  return Result;
}

/// Enumerates TBk partials over the internal indices (Reg member unused).
/// Beyond the Algorithm-2 rotations, mixed assignments with independent
/// per-index tiles are generated so contractions whose two input FVIs are
/// both internal can coalesce both loads (smem pruning bounds the blowup).
std::vector<PartialConfig>
enumerateK(const Contraction &TC) {
  std::vector<char> Internals = TC.internalIndices();
  std::vector<PartialConfig> Result;
  if (Internals.empty()) {
    Result.push_back({});
    return Result;
  }
  std::set<std::string> Seen;
  auto emit = [&](std::vector<IndexTile> K) {
    if (K.empty())
      return;
    if (Seen.insert(keyOf(K)).second)
      Result.push_back({std::move(K), {}});
  };
  for (int64_t KSize : TBSizes)
    for (size_t StartIdx = 0; StartIdx < Internals.size(); ++StartIdx)
      emit(fillToward(TC, Internals, StartIdx, KSize, {}, 1));

  // Mixed per-index tiles: the Cartesian product over {1, 4, 8, 16} with a
  // bounded aggregate product.
  static const int64_t MixedTiles[] = {1, 4, 8, 16};
  constexpr int64_t MaxProduct = 256;
  size_t NumIdx = std::min<size_t>(Internals.size(), 4);
  std::vector<size_t> Choice(NumIdx, 0);
  for (;;) {
    std::vector<IndexTile> K;
    int64_t Product = 1;
    for (size_t I = 0; I < NumIdx; ++I) {
      int64_t Tile =
          std::min<int64_t>(MixedTiles[Choice[I]], TC.extent(Internals[I]));
      if (Tile > 1)
        K.push_back({Internals[I], Tile});
      Product *= Tile;
    }
    if (Product <= MaxProduct)
      emit(std::move(K));
    size_t Dim = 0;
    for (; Dim < NumIdx; ++Dim) {
      if (++Choice[Dim] < std::size(MixedTiles))
        break;
      Choice[Dim] = 0;
    }
    if (Dim == NumIdx)
      break;
  }
  assert(!Result.empty() && "no TBk candidates for non-empty internals");
  return Result;
}

int64_t ceilDiv(int64_t X, int64_t Y) { return (X + Y - 1) / Y; }

/// Which list of the product a partial belongs to.
enum class Side { X, Y, K };

/// Fills \p Partial's precomputed fields. \p SideIndices are the indices
/// its Factor runs over: the side's externals, or the internals for TBk.
void finishPartial(const Contraction &TC, Operand XInput, Side S,
                   const std::vector<char> &SideIndices,
                   PartialConfig &Partial) {
  // The lists on their own pass validate exactly when a config holding
  // them passes it next to a one-thread TBx on the output FVI: ownership,
  // kind and tile range are per list, and a Y or TBk list naming the
  // output FVI clashes with every valid X partial anyway.
  KernelConfig Probe;
  Probe.XInput = XInput;
  switch (S) {
  case Side::X:
    Probe.TBx = Partial.TB;
    Probe.RegX = Partial.Reg;
    break;
  case Side::Y:
    Probe.TBx = {{TC.fvi(Operand::C), 1}};
    Probe.TBy = Partial.TB;
    Probe.RegY = Partial.Reg;
    break;
  case Side::K:
    Probe.TBx = {{TC.fvi(Operand::C), 1}};
    Probe.TBk = Partial.TB;
    break;
  }
  Partial.Valid = Probe.validate(TC).empty();
  if (!Partial.Valid)
    return; // an invalid partial never reaches the other fields
  std::array<int64_t, 26> Tile;
  Tile.fill(1);
  for (const IndexTile &T : Partial.TB) {
    Partial.TBSize *= T.Tile;
    Partial.Mask |= 1u << (T.Name - 'a');
    Partial.FviCover |= 1u << (T.Name - 'a');
    Tile[static_cast<size_t>(T.Name - 'a')] = T.Tile;
  }
  for (const IndexTile &T : Partial.Reg) {
    Partial.RegSize *= T.Tile;
    Partial.Mask |= 1u << (T.Name - 'a');
    if (T.Tile > 1)
      Partial.FviCover |= 1u << (T.Name - 'a');
    Tile[static_cast<size_t>(T.Name - 'a')] = T.Tile;
  }
  for (char Name : SideIndices)
    Partial.Factor *=
        ceilDiv(TC.extent(Name), Tile[static_cast<size_t>(Name - 'a')]);
}

/// Fills the precomputed fields of every partial in \p Set.
void finishPartials(const Contraction &TC, CandidateSet &Set) {
  Operand YInput = Set.XInput == Operand::A ? Operand::B : Operand::A;
  auto externalsOf = [&](Operand Input) {
    std::vector<char> Names;
    for (char Name : TC.indices(Input))
      if (TC.isExternal(Name))
        Names.push_back(Name);
    return Names;
  };
  std::vector<char> XSide = externalsOf(Set.XInput);
  std::vector<char> YSide = externalsOf(YInput);
  std::vector<char> Internals = TC.internalIndices();
  for (PartialConfig &P : Set.X)
    finishPartial(TC, Set.XInput, Side::X, XSide, P);
  for (PartialConfig &P : Set.Y)
    finishPartial(TC, Set.XInput, Side::Y, YSide, P);
  for (PartialConfig &P : Set.K)
    finishPartial(TC, Set.XInput, Side::K, Internals, P);
}

} // namespace

TileTable CandidateSet::tileTable(CandidateTriple T) const {
  TileTable Table;
  Table.Tile.fill(1);
  for (const PartialConfig *Partial : {&X[T.X], &Y[T.Y], &K[T.K]}) {
    for (const IndexTile &Entry : Partial->TB)
      Table.Tile[static_cast<size_t>(Entry.Name - 'a')] = Entry.Tile;
    for (const IndexTile &Entry : Partial->Reg)
      Table.Tile[static_cast<size_t>(Entry.Name - 'a')] = Entry.Tile;
  }
  Table.Sizes = sizes(T);
  Table.Blocks = X[T.X].Factor * Y[T.Y].Factor;
  Table.Steps = K[T.K].Factor;
  return Table;
}

KernelConfig CandidateSet::config(CandidateTriple T) const {
  KernelConfig Config;
  Config.XInput = XInput;
  Config.TBx = X[T.X].TB;
  Config.RegX = X[T.X].Reg;
  Config.TBy = Y[T.Y].TB;
  Config.RegY = Y[T.Y].Reg;
  Config.TBk = K[T.K].TB;
  return Config;
}

CandidateSet CandidateSet::single(const Contraction &TC,
                                  const KernelConfig &Config) {
  assert(Config.validate(TC).empty() && "single() needs a valid config");
  CandidateSet Set;
  Set.XInput = Config.XInput;
  Set.X.push_back({Config.TBx, Config.RegX});
  Set.Y.push_back({Config.TBy, Config.RegY});
  Set.K.push_back({Config.TBk, {}});
  finishPartials(TC, Set);
  Set.Triples.push_back({});
  return Set;
}

Enumerator::Enumerator(const Contraction &TCIn,
                       const gpu::DeviceSpec &DeviceIn,
                       EnumerationOptions OptionsIn)
    : TC(TCIn), Device(DeviceIn), Options(std::move(OptionsIn)) {
  if (Options.MinThreadBlocks == 0)
    Options.MinThreadBlocks = 2 * static_cast<int64_t>(Device.NumSMs);
}

const char *cogent::core::searchStatusName(SearchStatus Status) {
  switch (Status) {
  case SearchStatus::Complete:
    return "complete";
  case SearchStatus::ConfigCapHit:
    return "config-cap";
  case SearchStatus::DeadlineHit:
    return "deadline";
  }
  assert(false && "unknown search status");
  return "?";
}

std::optional<SearchStatus>
cogent::core::searchStatusFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumSearchStatuses; ++I) {
    SearchStatus Status = static_cast<SearchStatus>(I);
    if (Name == searchStatusName(Status))
      return Status;
  }
  return std::nullopt;
}

double Enumerator::naiveSearchSpace(const Contraction &TC) {
  double NumExternal = static_cast<double>(TC.externalIndices().size());
  double NumInternal = static_cast<double>(TC.internalIndices().size());
  double Mapping = std::pow(4.0, NumExternal) *
                   std::pow(2.0, std::max(0.0, NumInternal - 1.0));
  double TileSizes = std::pow(6.0, NumExternal + NumInternal - 1.0);
  return Mapping * TileSizes;
}

CandidateSet Enumerator::search(EnumerationStats *Stats) const {
  char OutFvi = TC.fvi(Operand::C);
  Operand XInput = TC.inputContaining(OutFvi);
  Operand YInput = XInput == Operand::A ? Operand::B : Operand::A;

  // External pools in each input's own index order, FVI -> SVI.
  auto externalPool = [&](Operand Input, char Exclude) {
    std::vector<char> Pool;
    for (char Name : TC.indices(Input))
      if (TC.isExternal(Name) && Name != Exclude)
        Pool.push_back(Name);
    return Pool;
  };
  CandidateSet Set;
  Set.XInput = XInput;
  Set.X = enumerateSide(TC, OutFvi, externalPool(XInput, OutFvi));
  Set.Y = enumerateSide(TC, /*Forced=*/0, externalPool(YInput, 0));
  Set.K = enumerateK(TC);
  finishPartials(TC, Set);

  EnumerationStats Local;
  Local.RawConfigs =
      static_cast<uint64_t>(Set.X.size()) * Set.Y.size() * Set.K.size();

  // FVI performance constraints (§IV-A2): each input's own FVI must be part
  // of the dimension that walks it during coalesced loads — staged in TBk
  // when internal; when external, mapped on its side's TB list or covered
  // by a register tile above 1 (which still yields contiguous per-thread
  // runs during the flattened slice load). In a valid triple only the
  // owning partial can name the FVI, so the union of the three FviCover
  // masks decides. A degenerate (extent-1) FVI has nothing to coalesce.
  uint32_t NeedFvi = 0;
  for (char Fvi : {TC.fvi(XInput), TC.fvi(YInput)})
    if (TC.extent(Fvi) != 1)
      NeedFvi |= 1u << (Fvi - 'a');

  std::vector<CandidateTriple> PerfPrunedOnly; // for relaxation

  // Cooperative budget checks: the candidate cap is tested per triple, the
  // deadline every DeadlineStride triples (a steady_clock read per
  // candidate would dominate small enumerations).
  auto StartTime = std::chrono::steady_clock::now();
  constexpr uint64_t DeadlineStride = 256;
  auto budgetStop = [&]() -> bool {
    if (Options.MaxConfigs != 0 && Local.Examined >= Options.MaxConfigs) {
      Local.Status = SearchStatus::ConfigCapHit;
      return true;
    }
    if (Options.DeadlineMs > 0.0 && Local.Examined % DeadlineStride == 0) {
      double ElapsedMs = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - StartTime)
                             .count();
      if (ElapsedMs > Options.DeadlineMs) {
        Local.Status = SearchStatus::DeadlineHit;
        return true;
      }
    }
    return false;
  };

  // Chaos site: a simulated allocation failure mid-search. Thrown (not
  // returned) because that is how a real bad_alloc would surface here;
  // Cogent::generate contains it and demotes to the fallback chain.
  if (support::chaosShouldFire(support::ChaosSite::EnumeratorAlloc))
    throw std::bad_alloc();

  for (uint32_t XI = 0; XI < Set.X.size(); ++XI) {
    for (uint32_t YI = 0; YI < Set.Y.size(); ++YI) {
      for (uint32_t KI = 0; KI < Set.K.size(); ++KI) {
        if (budgetStop())
          goto searchDone;
        ++Local.Examined;
        const PartialConfig &X = Set.X[XI];
        const PartialConfig &Y = Set.Y[YI];
        const PartialConfig &K = Set.K[KI];
        CandidateTriple Triple{XI, YI, KI};

        // Structural validity (KernelConfig::validate): each list valid on
        // its own, and no index mapped by two partials.
        if (!X.Valid || !Y.Valid || !K.Valid || (X.Mask & Y.Mask) != 0 ||
            ((X.Mask | Y.Mask) & K.Mask) != 0) {
          ++Local.InvalidConfigs;
          continue;
        }

        // Hardware constraints.
        TileSizes Sizes = Set.sizes(Triple);
        int64_t Threads = Sizes.threadsPerBlock();
        int64_t Smem = Sizes.smemBytes(Options.ElementSize);
        unsigned Regs = Sizes.registersPerThread(Options.ElementSize);
        if (Threads > Device.MaxThreadsPerBlock ||
            Smem > static_cast<int64_t>(Device.SharedMemPerBlock) ||
            Regs > Device.MaxRegistersPerThread) {
          ++Local.HardwarePruned;
          continue;
        }

        // Performance constraints.
        bool PerfOk = true;
        if (Options.EnforceFviConstraints &&
            ((X.FviCover | Y.FviCover | K.FviCover) & NeedFvi) != NeedFvi)
          PerfOk = false;
        if (PerfOk && Options.EnforceMinBlocks &&
            X.Factor * Y.Factor < Options.MinThreadBlocks)
          PerfOk = false;
        if (PerfOk && Options.MinOccupancy > 0.0) {
          gpu::BlockResources Block;
          Block.ThreadsPerBlock = static_cast<unsigned>(Threads);
          Block.SharedMemBytes = static_cast<unsigned>(Smem);
          Block.RegistersPerThread = Regs;
          if (gpu::computeOccupancy(Device, Block).Occupancy <
              Options.MinOccupancy)
            PerfOk = false;
        }
        if (!PerfOk) {
          ++Local.PerformancePruned;
          PerfPrunedOnly.push_back(Triple);
          continue;
        }
        Set.Triples.push_back(Triple);
      }
    }
  }

searchDone:
  Local.Survivors = Set.Triples.size();
  if (Stats)
    *Stats = Local;

  // Mirror the per-run stats into the process-wide counters so metrics
  // snapshots agree with EnumerationStats exactly.
  NumRawConfigs += Local.RawConfigs;
  NumExamined += Local.Examined;
  NumInvalid += Local.InvalidConfigs;
  NumHardwarePruned += Local.HardwarePruned;
  NumPerformancePruned += Local.PerformancePruned;
  NumSurvivors += Local.Survivors;
  if (Local.truncated()) {
    ++NumBudgetTrips;
    support::traceInstant(
        "enumerator.budget-trip",
        {{"reason", searchStatusName(Local.Status)},
         {"examined", std::to_string(Local.Examined)},
         {"raw_configs", std::to_string(Local.RawConfigs)}});
  }

  if (Set.Triples.empty() && !PerfPrunedOnly.empty()) {
    ++NumRelaxations;
    support::traceInstant(
        "enumerator.relaxation",
        {{"candidates", std::to_string(PerfPrunedOnly.size())}});
    Set.Triples = std::move(PerfPrunedOnly);
  }
  return Set;
}

std::vector<KernelConfig>
Enumerator::enumerate(EnumerationStats *Stats) const {
  CandidateSet Set = search(Stats);
  std::vector<KernelConfig> Configs;
  Configs.reserve(Set.size());
  for (CandidateTriple Triple : Set.Triples)
    Configs.push_back(Set.config(Triple));
  return Configs;
}

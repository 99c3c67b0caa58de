//===- core/Enumerator.h - Configuration enumeration (Alg. 2) -------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Enumerates candidate kernel configurations per the paper's §IV-A:
/// thread-block dimension targets limited to {4, 8, 16} and register-tile
/// targets to {2, 4, 6, 8}; index lists built by rotating through each
/// input's external indices from its FVI to its SVI (Algorithm 2); the
/// Cartesian product of X-side, Y-side and TBk partial configurations is
/// then pruned by hardware constraints (shared memory / registers / thread
/// counts) and performance constraints (input-FVI coalescing, minimum
/// thread-block count, minimum occupancy). A candidate of the product is an
/// (x, y, k) index triple; pruning reads values precomputed once per
/// partial, so the search builds no KernelConfig.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_CORE_ENUMERATOR_H
#define COGENT_CORE_ENUMERATOR_H

#include "core/KernelConfig.h"
#include "gpu/DeviceSpec.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cogent {
namespace core {

/// Tunable knobs of the enumeration; defaults match the paper. The tile
/// sizes themselves are the paper's fixed {4, 8, 16} (thread block) and
/// {2, 4, 6, 8} (register).
struct EnumerationOptions {
  /// Minimum grid size before a config is considered load-balanced; 0
  /// derives 2 * NumSMs from the device.
  int64_t MinThreadBlocks = 0;
  double MinOccupancy = 0.125;
  unsigned ElementSize = 8;
  /// Performance-constraint toggles (ablation hooks; both on in the paper).
  bool EnforceFviConstraints = true;
  bool EnforceMinBlocks = true;
  /// Cooperative resource budget, synced from CogentOptions::Budget by
  /// Cogent::generate. 0 = unlimited. MaxConfigs caps the number of full
  /// configurations examined; DeadlineMs bounds the wall clock of the
  /// enumeration loop (checked every few hundred candidates).
  uint64_t MaxConfigs = 0;
  double DeadlineMs = 0.0;
};

/// How an enumeration run ended: exhaustively, or cut short by a budget.
enum class SearchStatus {
  Complete,
  /// Stopped after EnumerationOptions::MaxConfigs candidates.
  ConfigCapHit,
  /// Stopped when EnumerationOptions::DeadlineMs elapsed.
  DeadlineHit,
};

/// Number of SearchStatus enumerators; keep in sync when extending the
/// enum (the name-table round-trip test walks [0, NumSearchStatuses)).
inline constexpr unsigned NumSearchStatuses = 3;

/// "complete", "config-cap" or "deadline".
const char *searchStatusName(SearchStatus Status);

/// Inverse of searchStatusName; nullopt for unknown strings.
std::optional<SearchStatus> searchStatusFromName(const std::string &Name);

/// Bookkeeping for the paper's "around 97% of the configurations were
/// pruned" statistic and the naive-search-space comparison.
struct EnumerationStats {
  /// Size of the Cartesian product of partial configurations (before any
  /// full-config pruning).
  uint64_t RawConfigs = 0;
  uint64_t InvalidConfigs = 0;
  uint64_t HardwarePruned = 0;
  uint64_t PerformancePruned = 0;
  uint64_t Survivors = 0;
  /// Candidates actually examined; equals RawConfigs unless a budget fired.
  uint64_t Examined = 0;
  /// Whether (and why) the search stopped before covering RawConfigs. When
  /// not Complete, the ranking is over a partial candidate set and callers
  /// should treat the winner as best-effort.
  SearchStatus Status = SearchStatus::Complete;

  bool truncated() const { return Status != SearchStatus::Complete; }

  double prunedFraction() const {
    return RawConfigs == 0
               ? 0.0
               : 1.0 - static_cast<double>(Survivors) /
                           static_cast<double>(RawConfigs);
  }
};

/// One partial configuration of Algorithm 2: a TB list plus a register-tile
/// list for one side (X or Y), or a TBk list (Reg empty), with what pruning
/// and scoring read of it computed once.
struct PartialConfig {
  std::vector<IndexTile> TB;
  std::vector<IndexTile> Reg;
  /// Tile products of TB and Reg.
  int64_t TBSize = 1;
  int64_t RegSize = 1;
  /// Bit (Name - 'a') of every index the partial maps.
  uint32_t Mask = 0;
  /// Bits of the indices whose loads the partial coalesces: every TB
  /// member, and Reg members with a tile above 1.
  uint32_t FviCover = 0;
  /// Product over the side's indices of ceil(extent / tile): the X or Y
  /// side's share of the grid size, or the TBk partial's step count.
  int64_t Factor = 1;
  /// Whether the lists pass KernelConfig::validate's checks on their own.
  bool Valid = true;
};

/// One candidate of the product: indices into CandidateSet's X, Y and K
/// partial lists.
struct CandidateTriple {
  uint32_t X = 0;
  uint32_t Y = 0;
  uint32_t K = 0;
};

/// The compact result of a search: the three partial lists and the
/// surviving triples in enumeration order (X, then Y, then K). When
/// relaxation fired, Triples holds the performance-pruned candidates
/// instead. A KernelConfig is built only on request (config()).
struct CandidateSet {
  ir::Operand XInput = ir::Operand::A;
  std::vector<PartialConfig> X;
  std::vector<PartialConfig> Y;
  std::vector<PartialConfig> K;
  std::vector<CandidateTriple> Triples;

  size_t size() const { return Triples.size(); }
  bool empty() const { return Triples.empty(); }

  TileSizes sizes(CandidateTriple T) const {
    return {X[T.X].TBSize, Y[T.Y].TBSize, X[T.X].RegSize, Y[T.Y].RegSize,
            K[T.K].TBSize};
  }
  /// \p T's tile table, equal to config(T).tileTable(TC).
  TileTable tileTable(CandidateTriple T) const;
  KernelConfig config(CandidateTriple T) const;

  /// A one-triple set holding \p Config, which must validate against \p TC
  /// (how the fallback rungs rank their single configuration).
  static CandidateSet single(const ir::Contraction &TC,
                             const KernelConfig &Config);
};

/// Enumerates pruned kernel configurations for one contraction on one
/// device.
class Enumerator {
public:
  Enumerator(const ir::Contraction &TC, const gpu::DeviceSpec &Device,
             EnumerationOptions Options = EnumerationOptions());

  /// Builds the partials and prunes their product; fills \p Stats when
  /// non-null. When performance pruning removes every candidate (tiny
  /// problems), the performance-pruned ones survive instead (relaxation).
  /// The set can still be empty: every candidate over a hardware limit, or
  /// a budget that cut the search short.
  CandidateSet search(EnumerationStats *Stats = nullptr) const;

  /// search(), with every surviving configuration built.
  std::vector<KernelConfig> enumerate(EnumerationStats *Stats = nullptr) const;

  /// The paper's naive full-search-space size (§IV): |mapping| x |tilesize|
  /// = 4^next * 2^(nint-1) * 6^(next+nint-1); evaluates to 3,981,312 for
  /// Eq. 1.
  static double naiveSearchSpace(const ir::Contraction &TC);

private:
  ir::Contraction TC;
  gpu::DeviceSpec Device;
  EnumerationOptions Options;
};

} // namespace core
} // namespace cogent

#endif // COGENT_CORE_ENUMERATOR_H

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
/// thread-block count, minimum occupancy).
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
  /// When pruning removes every candidate (tiny problems), progressively
  /// relax performance constraints instead of failing.
  bool RelaxWhenEmpty = true;
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

/// Enumerates pruned kernel configurations for one contraction on one
/// device.
class Enumerator {
public:
  Enumerator(const ir::Contraction &TC, const gpu::DeviceSpec &Device,
             EnumerationOptions Options = EnumerationOptions());

  /// Produces all surviving configurations; fills \p Stats when non-null.
  /// Never returns an empty vector for a valid contraction (relaxation
  /// kicks in for degenerate problems when RelaxWhenEmpty is set).
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

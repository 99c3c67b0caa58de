//===- verify/DifferentialChecker.h - Simulator-vs-reference checking -----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the verification subsystem: executes the
/// KernelSimulator's rendering of a configuration against the naive
/// reference contraction on randomized small extents and cross-checks the
/// simulator's exact DRAM transaction counts against the Algorithm-3
/// analytic estimate within a declared tolerance. Trials seed NaN/Inf/
/// denormal values into the operands (the schedule must propagate them
/// identically to the oracle, NaN-aware) and probe overflow-prone extents,
/// which must be rejected as typed errors upstream, never planned.
///
/// This is O(prod extents) per trial — run it at clamped validation sizes
/// (tests, the chaos lane, bench --verify), not inside Cogent::generate.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_VERIFY_DIFFERENTIALCHECKER_H
#define COGENT_VERIFY_DIFFERENTIALCHECKER_H

#include "core/KernelConfig.h"
#include "gpu/DeviceSpec.h"
#include "ir/Contraction.h"
#include "support/Diagnostics.h"

#include <cstdint>

namespace cogent {
namespace verify {

/// Knobs for one differential-checking session.
struct DifferentialOptions {
  /// Seed for extent draws, operand fills and special-value placement.
  uint64_t Seed = 0x5eedULL;
  /// Randomized-extent trials per contraction (plus the special-value and
  /// overflow probes).
  unsigned Trials = 3;
  /// Upper clamp for randomized per-index extents; keeps the dense oracle
  /// affordable.
  int64_t MaxExtent = 10;
  /// Allowed multiplicative disagreement between simulated and modeled
  /// transaction totals (either direction), after 64 absolute
  /// transactions are forgiven for tiny-tile boundary effects.
  double TrafficFactor = 4.0;
};

/// What a successful differential check measured.
struct DifferentialReport {
  unsigned TrialsRun = 0;
  /// Worst finite relative error seen across all trials.
  double MaxRelError = 0.0;
  /// Worst modeled/simulated transaction ratio (>= 1; direction folded).
  double WorstTrafficRatio = 1.0;
};

/// Runs \p Trials randomized-extent executions of \p Config's schedule for
/// \p TC (tiles clamped per trial), comparing against the reference oracle
/// and the analytic cost model. Returns ErrorCode::VerificationFailed with
/// a trial-identifying context on the first divergence.
ErrorOr<DifferentialReport>
runDifferentialCheck(const ir::Contraction &TC,
                     const core::KernelConfig &Config,
                     const gpu::DeviceSpec &Device,
                     const DifferentialOptions &Options = {});

} // namespace verify
} // namespace cogent

#endif // COGENT_VERIFY_DIFFERENTIALCHECKER_H

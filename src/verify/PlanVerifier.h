//===- verify/PlanVerifier.h - Static invariant checks on KernelPlans -----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static half of the verification subsystem: a checker run on every
/// KernelPlan before its source is handed to the caller, proving the
/// enumerator/fallback guarantees rather than assuming them. The verifier
/// recomputes each invariant from first principles (it never reuses the
/// number it is checking), so a misbehaving cost model, a mutated
/// DeviceSpec or a truncated emission is caught here and demoted to the
/// next fallback rung by Cogent::generate instead of reaching the user.
///
/// Invariants checked (docs/ARCHITECTURE.md §11):
///  - the configuration is structurally valid for the contraction
///    (KernelConfig::validate) and every loop index is tiled exactly once
///    across the grid/step decompositions with NumTiles == ceil(N/T);
///  - the block fits the device: threads within MaxThreadsPerBlock, the
///    staged slices within SharedMemPerBlock (and the SM), the register
///    estimate within MaxRegistersPerThread, and occupancy >= 1 block/SM;
///  - the claimed transaction cost is finite, non-negative and at least the
///    compulsory-traffic lower bound (every tensor element moved once),
///    computed here independently of estimateTransactions;
///  - the emitted source is plausible: non-empty, named, brace-balanced.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_VERIFY_PLANVERIFIER_H
#define COGENT_VERIFY_PLANVERIFIER_H

#include "core/CodeGen.h"
#include "core/CostModel.h"
#include "core/KernelPlan.h"
#include "gpu/DeviceSpec.h"
#include "support/Diagnostics.h"

namespace cogent {
namespace verify {

/// Independent compulsory-traffic lower bound for \p TC: each element of
/// A, B and C must cross the DRAM bus at least once, so no legitimate
/// schedule can claim fewer than bytes / TransactionBytes transactions.
double transactionLowerBound(const ir::Contraction &TC, unsigned ElementSize,
                             unsigned TransactionBytes);

/// Checks the invariants of plans targeted at one device. Stateless apart
/// from the device/element-size pair; cheap enough to run on every emitted
/// kernel in the default build.
class PlanVerifier {
public:
  PlanVerifier(const gpu::DeviceSpec &Device, unsigned ElementSize)
      : Device(Device), ElementSize(ElementSize) {}

  /// Structural + resource invariants of \p Plan (everything except the
  /// cost and source checks). ErrorCode::VerificationFailed on violation.
  ErrorOr<void> verifyPlan(const core::KernelPlan &Plan) const;

  /// Sanity of a claimed transaction cost for a kernel computing \p TC:
  /// finite, non-negative, and >= the analytic lower bound (with a small
  /// slack for rounding). Catches perturbed or corrupted cost-model
  /// outputs. Needs no plan, so ranking checks every candidate's cost.
  ErrorOr<void> verifyCost(const ir::Contraction &TC,
                           const core::TransactionCost &Cost) const;

  /// verifyCost for \p Plan's contraction.
  ErrorOr<void> verifyCost(const core::KernelPlan &Plan,
                           const core::TransactionCost &Cost) const;

  /// Plausibility of emitted source: non-empty kernel text containing the
  /// kernel name, balanced braces across kernel + driver. Catches truncated
  /// emissions.
  ErrorOr<void> verifySource(const core::GeneratedSource &Source) const;

  const gpu::DeviceSpec &device() const { return Device; }
  unsigned elementSize() const { return ElementSize; }

private:
  gpu::DeviceSpec Device;
  unsigned ElementSize;
};

} // namespace verify
} // namespace cogent

#endif // COGENT_VERIFY_PLANVERIFIER_H

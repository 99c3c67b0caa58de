//===- analysis/KernelLint.h - Static analyzer for emitted kernels --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KernelLint: independent static-analysis passes over the KernelModel of
/// one emitted kernel, cross-checked against the KernelPlan that produced
/// it. Where the PlanVerifier re-checks the *plan* against device budgets,
/// KernelLint re-checks the *source* against the plan — the two views can
/// only drift if codegen regresses, and that drift is exactly what each
/// pass detects:
///
///   BankConflict     — SMEM index expressions must use the plan's staging
///     strides (mod-32 bank behavior is a function of those strides).
///   Coalescing       — GMEM index expressions must use the plan's global
///     strides and tile bases; predictTransactions() replays the access
///     pattern so the analyzer can be diffed against KernelSimulator.
///   BoundsCheck      — affine index ranges vs. declared SMEM/register
///     array sizes, and guard completeness vs. tensor extents.
///   ResourceDecl     — #define table, __shared__ bytes and register-tile
///     declarations must match the verified plan.
///   RegisterPressure — KernelDataflow's per-thread liveness-derived
///     register estimate must stay within PressureToleranceRegs of the
///     plan's analytic estimate and the device budget.
///   RedundantBarrier — every __syncthreads() must separate at least one
///     pair of accesses to one shared buffer, at least one a write
///     (KernelRaceProver's barrier intervals).
///   DeadStore        — no scalar may be written and never read, or read
///     before any definition; no register tile may be staged yet unread.
///   SmemLifetime     — staging buffers must be both written and read
///     (KernelDataflow); buffers whose barrier intervals never overlap
///     (KernelRaceProver) are surfaced as a reuse note.
///   Uniformity       — taint classes: tile bases, trip counts and stride
///     variables must be thread-uniform (KernelRaceProver).
///   RaceFreedom      — symbolic two-thread proof that no same-interval
///     SMEM/GMEM access pair can alias across threads (KernelRaceProver);
///     this is the pass that catches a missing barrier.
///   BarrierUniformity— every barrier sits under uniform control only
///     (KernelRaceProver).
///
/// Findings are typed (pass + severity + message + line) and deliberately
/// fire only on plan-vs-source inconsistency, never on inherent layout
/// quality: a clean emission lints clean by construction, which is what
/// lets the fuzz harness use strict lint as an oracle.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_ANALYSIS_KERNELLINT_H
#define COGENT_ANALYSIS_KERNELLINT_H

#include "analysis/KernelModel.h"
#include "core/KernelPlan.h"

#include <cstdint>
#include <string>
#include <vector>

namespace cogent {
namespace analysis {

/// The independent analysis passes, in run order.
enum class LintPass {
  Structure,        ///< The source failed to parse as the emitted schema.
  BankConflict,
  Coalescing,
  BoundsCheck,
  ResourceDecl,
  RegisterPressure, ///< Liveness-derived pressure vs. plan/device budget.
  RedundantBarrier, ///< Barriers that order no SMEM dependence.
  DeadStore,        ///< Writes never read; reads never written.
  SmemLifetime,     ///< Staging-buffer live ranges and reuse notes.
  Uniformity,       ///< Taint classes of schema-uniform/thread roles.
  RaceFreedom,      ///< Symbolic two-thread SMEM/GMEM race proof.
  BarrierUniformity,///< Every barrier under thread-uniform control.
};

/// Number of LintPass enumerators (name-table round-trip tests walk this).
inline constexpr unsigned NumLintPasses = 12;

/// Stable identifier, e.g. "race-freedom".
const char *lintPassName(LintPass Pass);

/// Inverse of lintPassName; returns std::nullopt for unknown names.
std::optional<LintPass> lintPassFromName(const std::string &Name);

/// True for the three KernelRaceProver-backed passes (10-12): Uniformity,
/// RaceFreedom and BarrierUniformity. The generation gate counts a strict
/// rejection carrying one of their errors as "race.rejections"
/// (GenerationResult::raceRejections()).
bool isRacePass(LintPass Pass);

enum class LintSeverity { Warning, Error };

const char *lintSeverityName(LintSeverity Severity);

/// One typed finding.
struct LintFinding {
  LintPass Pass = LintPass::Structure;
  LintSeverity Severity = LintSeverity::Error;
  unsigned Line = 0;  ///< 1-based kernel-source line, 0 when unanchored.
  std::string Message;

  /// "error: [bank-conflict] line 12: ..." for logs and --explain-lint.
  std::string render() const;
};

/// How the generation pipeline treats findings (CogentOptions::Lint,
/// cogent_cli --lint=MODE).
enum class LintMode {
  Off,    ///< Analyzer not run.
  Warn,   ///< Findings recorded in GenerationResult, candidates kept.
  Strict, ///< Error findings reject the candidate (demoting the rung).
};

const char *lintModeName(LintMode Mode);
std::optional<LintMode> lintModeFromName(const std::string &Name);

struct LintOptions {
  LintMode Mode = LintMode::Strict;
  unsigned ElementSize = 8;
  unsigned TransactionBytes = 128;
  /// Per-thread register budget the RegisterPressure pass checks against
  /// (CUDA's 255 architectural limit by default; the pipeline syncs it
  /// from DeviceSpec::MaxRegistersPerThread).
  unsigned RegisterBudget = 255;
};

/// The result of one lintKernel run.
struct LintReport {
  std::vector<LintFinding> Findings;
  /// KernelDataflow's per-thread register-pressure estimate for the linted
  /// source (0 when the source did not parse or lint was off). Always
  /// filled when the analyzer runs, independent of findings — this is the
  /// always-on reporting half of the RegisterPressure pass.
  unsigned SourcePressure = 0;

  unsigned errorCount() const {
    unsigned N = 0;
    for (const LintFinding &F : Findings)
      N += F.Severity == LintSeverity::Error;
    return N;
  }
  bool clean() const { return Findings.empty(); }
};

/// Runs every pass over \p KernelSource against \p Plan. With Mode == Off
/// returns an empty report without parsing.
LintReport lintKernel(const core::KernelPlan &Plan,
                      const std::string &KernelSource,
                      const LintOptions &Options = LintOptions());

/// Per-operand GMEM transaction counts predicted by replaying the parsed
/// source's access pattern warp by warp — the Coalescing pass's
/// quantitative half, kept bit-identical to gpu::simulateKernel's counts
/// (asserted by tests, not just documented). Double-buffered sources are
/// a typed error: the pipeline only emits single-buffer kernels.
struct TrafficPrediction {
  uint64_t TransactionsA = 0;
  uint64_t TransactionsB = 0;
  uint64_t TransactionsC = 0;
  uint64_t total() const {
    return TransactionsA + TransactionsB + TransactionsC;
  }
};

ErrorOr<TrafficPrediction>
predictTransactions(const core::KernelPlan &Plan,
                    const std::string &KernelSource,
                    const LintOptions &Options = LintOptions());

/// Human-oriented dump for cogent_cli --explain-lint: the parsed resource
/// table, barrier/staging structure, per-access stride checks and any
/// findings.
std::string explainLint(const core::KernelPlan &Plan,
                        const std::string &KernelSource,
                        const LintOptions &Options = LintOptions());

} // namespace analysis
} // namespace cogent

#endif // COGENT_ANALYSIS_KERNELLINT_H

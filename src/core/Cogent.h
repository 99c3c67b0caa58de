//===- core/Cogent.h - Top-level code generator API ------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point: given a contraction (with representative problem
/// size) and a target device, enumerate the pruned configuration space,
/// rank it with the DRAM-transaction cost model, and emit CUDA source for
/// the winning configuration(s). This is the whole paper in one call.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_CORE_COGENT_H
#define COGENT_CORE_COGENT_H

#include "analysis/KernelLint.h"
#include "core/CodeGen.h"
#include "core/CostModel.h"
#include "core/Enumerator.h"
#include "core/KernelConfig.h"
#include "gpu/DeviceSpec.h"
#include "gpu/PerfModel.h"
#include "support/Counters.h"
#include "support/Diagnostics.h"
#include "support/FaultInjection.h"
#include "support/Trace.h"
#include "verify/PlanVerifier.h"

#include <cassert>
#include <functional>
#include <optional>
#include <string>
#include <vector>

namespace cogent {
namespace core {

/// Which rung of the guaranteed-fallback chain produced the result.
enum class FallbackLevel {
  /// The normal enumerate -> rank -> emit pipeline.
  None,
  /// Enumeration (even relaxed) found nothing; a minimal thread-block
  /// configuration with 1x1 register tiles was constructed directly.
  MinimalTile,
  /// Even the minimal configuration violates the device's limits; the
  /// result is the TTGT evaluation plan: a kernel for the matricized GEMM
  /// (spec "ab-ac-cb" over fused extents M/N/K), to be executed via
  /// transpose + library-GEMM the way TAL_SH would.
  TtgtBaseline,
};

/// Number of FallbackLevel enumerators; keep in sync when extending the
/// enum (the name-table round-trip test walks [0, NumFallbackLevels)).
inline constexpr unsigned NumFallbackLevels = 3;

/// "none", "minimal-tile" or "ttgt".
const char *fallbackLevelName(FallbackLevel Level);

/// Inverse of fallbackLevelName; nullopt for unknown strings.
std::optional<FallbackLevel> fallbackLevelFromName(const std::string &Name);

/// Caller-imposed resource limits for one generation run. All zero (the
/// default) means unlimited. Budgets degrade gracefully: hitting one never
/// fails the run, it truncates the search/emission and flags the result
/// (EnumerationStats::Status, GenerationResult::SourceTruncated).
struct GenerationBudget {
  /// Maximum full configurations the enumerator may examine.
  uint64_t MaxConfigs = 0;
  /// Wall-clock deadline for the enumeration loop, milliseconds.
  double DeadlineMs = 0.0;
  /// Cap on total emitted source bytes across the top-K kernels. At least
  /// one kernel is always emitted (the never-empty guarantee outranks the
  /// byte cap).
  uint64_t MaxSourceBytes = 0;
};

/// Options for one generation run.
struct CogentOptions {
  /// 8 = double (paper Figs. 4/5), 4 = float (paper Figs. 6-8).
  unsigned ElementSize = 8;
  /// How many top-ranked kernels to materialize (the paper auto-tunes among
  /// a small model-selected set; 1 = pure model-driven choice).
  size_t TopK = 1;
  /// Resource limits; synced into Enumeration by generate().
  GenerationBudget Budget;
  /// Enumeration knobs; ElementSize is synced from above.
  EnumerationOptions Enumeration;
  /// When non-null, generate() installs this sink for the duration of the
  /// run and records phase spans (cogent.parse/enumerate/rank/emit/
  /// fallback) plus instant events for fallback rungs and budget trips.
  /// Null (the default) leaves whatever sink is already active untouched;
  /// with no sink at all, tracing costs nothing.
  support::TraceSession *Trace = nullptr;
  /// Deterministic fault injection for this run (Seed + site mask; see
  /// support/FaultInjection.h). Disabled by default; generate() installs a
  /// FaultInjector for the run's duration when a site mask is set. Only
  /// effective in builds configured with COGENT_CHAOS=ON.
  support::ChaosOptions Chaos;
  /// Post-emit static-analysis gate (analysis/KernelLint.h), symmetric
  /// with the PlanVerifier: every source that survives verifySource is
  /// linted against its plan. Strict (the default) rejects sources with
  /// error findings — the emission is retried and, when retries run out,
  /// the rung demotes down the fallback chain exactly like a verifier
  /// rejection. Warn records findings in GenerationResult::LintFindings
  /// without rejecting; Off skips the analysis. ElementSize, the device's
  /// transaction size and register budget are synced by generate().
  analysis::LintOptions Lint;
  /// Lowest fallback rung the run may *start* at — the graceful-degradation
  /// seam for deadline-pressured callers (service::GenerationService).
  /// None (the default) runs the full enumerate -> rank -> emit pipeline.
  /// MinimalTile skips enumeration entirely and begins at the directly
  /// constructed minimal-tile configuration; TtgtBaseline additionally
  /// skips the minimal rung and emits the matricized-GEMM plan straight
  /// away. Each is orders of magnitude cheaper than a full search, at the
  /// cost of plan quality — a degraded answer instead of a deadline miss.
  FallbackLevel StartRung = FallbackLevel::None;
};

/// One materialized kernel: its mapping, emitted source and model outputs.
struct GeneratedKernel {
  KernelConfig Config;
  GeneratedSource Source;
  TransactionCost Cost;
  gpu::OccupancyResult Occupancy;
  gpu::PerfEstimate Predicted;
  /// planRegisterPressure's analytic per-thread estimate for this plan.
  unsigned PlanPressure = 0;
  /// KernelDataflow's liveness-derived per-thread estimate for the emitted
  /// source (LintReport::SourcePressure; 0 when lint was off).
  unsigned SourcePressure = 0;
};

/// Wall-clock breakdown of one generation run by pipeline phase,
/// milliseconds. Measured unconditionally (a handful of monotonic clock
/// reads per run); the same intervals appear as spans in the trace when a
/// TraceSession is active. ParseMs is only nonzero for the string overload
/// of generate(). FallbackMs covers constructing the fallback
/// configuration, not ranking/emitting it.
struct PhaseTimings {
  double ParseMs = 0.0;
  double EnumerateMs = 0.0;
  double FallbackMs = 0.0;
  double RankMs = 0.0;
  double EmitMs = 0.0;
};

/// Result of Cogent::generate.
struct GenerationResult {
  /// Ranked best-first by modeled transaction cost. Non-empty whenever
  /// generate() returned a value (the fallback chain guarantees it).
  std::vector<GeneratedKernel> Kernels;
  EnumerationStats Stats;
  /// Which fallback rung fired; None on the normal path. When TtgtBaseline,
  /// the kernels target FallbackContraction (the matricized GEMM), not the
  /// original contraction.
  FallbackLevel Fallback = FallbackLevel::None;
  /// The matricized GEMM contraction backing a TtgtBaseline result.
  std::optional<ir::Contraction> FallbackContraction;
  /// True when GenerationBudget::MaxSourceBytes stopped emission before
  /// TopK kernels were materialized.
  bool SourceTruncated = false;
  /// Wall-clock spent enumerating + ranking + emitting, milliseconds (the
  /// paper's model-driven search takes seconds where TC's autotuner takes
  /// hours).
  double ElapsedMs = 0.0;
  /// Per-phase breakdown of ElapsedMs.
  PhaseTimings Phases;
  /// What this run contributed to every registered pipeline counter,
  /// recorded through a per-run support::CounterScope. Attribution is
  /// exact even when multiple threads generate concurrently: a scope only
  /// observes increments made on its own thread. Chaos firings appear
  /// here as the "chaos.fired.*" entries, lint activity as "lint.*".
  support::CounterSnapshot Counters;
  /// Rendered messages of the first few verifier rejections, for reports.
  /// Ranking verifies plans lazily (rankCandidates), so a candidate ranked
  /// below the accepted TopK never has its plan checked and never appears
  /// here; every candidate's cost is checked.
  std::vector<std::string> VerifierNotes;
  /// Lint findings attached to the *accepted* kernels: everything
  /// KernelLint reported in Warn mode, or warning-severity leftovers in
  /// Strict mode (Strict never accepts a source with error findings).
  std::vector<analysis::LintFinding> LintFindings;
  /// Rendered first findings of the first few lint rejections.
  std::vector<std::string> LintNotes;
  /// True when enumeration died mid-search (allocation failure — real or
  /// chaos-injected) and the run restarted on the fallback chain.
  bool EnumerationAborted = false;
  /// True when the device-mutate chaos site shrank the working DeviceSpec
  /// after enumeration (so ranking/verification saw tighter limits than
  /// the search did).
  bool DeviceMutated = false;

  bool empty() const { return Kernels.empty(); }

  // This run's rejection tallies, read from Counters (their only store).

  /// Candidate plans/costs/sources the PlanVerifier rejected (each
  /// rejection either retried or demoted toward the next fallback rung,
  /// never emitted): "verifier.rejections". Costs are checked for every
  /// ranked candidate, plans only in rank order until TopK pass, so plan
  /// rejections below the accepted head are not counted.
  uint64_t verifierRejections() const;
  /// Emitted sources the strict lint gate rejected (each retried or
  /// demoted, never returned to the caller): "lint.rejections".
  uint64_t lintRejections() const;
  /// Findings the race prover emitted during this run, accepted kernels or
  /// not, before lint merges duplicates: "race.findings".
  uint64_t raceFindings() const;
  /// Strict-gate rejections whose findings included at least one
  /// race-prover error (subset of lintRejections()): "race.rejections".
  uint64_t raceRejections() const;

  /// The top-ranked kernel. \pre !empty(); calling this on an empty result
  /// is a programming error (it was undefined behavior before the assert).
  const GeneratedKernel &best() const {
    assert(!Kernels.empty() && "best() on an empty GenerationResult");
    return Kernels.front();
  }
};

/// One candidate that survived ranking, with the model outputs it was
/// ranked on.
struct RankedCandidate {
  KernelConfig Config;
  TransactionCost Cost;
  gpu::OccupancyResult Occupancy;
};

/// Algorithm 3's selection among \p Candidates for \p TC on the verifier's
/// device and element size. Rank order: fewer modeled transactions, then
/// higher occupancy, then more threads per block, then enumeration order.
///
/// Every triple is scored from its tile table (CandidateSet::tileTable,
/// estimateTransactions and planOccupancy on the table); its cost must
/// pass Verifier.verifyCost within 4 estimates, or it is dropped. The
/// keys are popped from a heap in rank order, and only a popped key gets
/// a KernelConfig, a KernelPlan and a Verifier.verifyPlan check, until
/// \p TopK pass: a rejected candidate (among them every block that cannot
/// be resident) is skipped, so the result equals the first TopK entries of
/// ranking only the candidates whose plans verify. Each verifier rejection
/// is passed to \p OnReject.
std::vector<RankedCandidate>
rankCandidates(const ir::Contraction &TC, const CandidateSet &Candidates,
               const verify::PlanVerifier &Verifier, size_t TopK,
               const std::function<void(const Error &)> &OnReject);

/// The code generator, bound to one target device.
class Cogent {
public:
  explicit Cogent(gpu::DeviceSpec Device) : Device(std::move(Device)) {}

  const gpu::DeviceSpec &device() const { return Device; }

  /// Runs enumeration, cost-model ranking and code emission for \p TC.
  /// Never returns an empty result for a well-formed contraction: when the
  /// pruned search comes up empty the fallback chain degrades to a minimal
  /// 1x1-register-tile configuration and, if even that exceeds the device,
  /// to the TTGT baseline plan — see GenerationResult::Fallback.
  ErrorOr<GenerationResult> generate(const ir::Contraction &TC,
                                     CogentOptions Options =
                                         CogentOptions()) const;

  /// Convenience: parse + generate.
  ErrorOr<GenerationResult>
  generate(const std::string &Spec,
           const std::vector<std::pair<char, int64_t>> &Extents,
           CogentOptions Options = CogentOptions()) const;

private:
  gpu::DeviceSpec Device;
};

/// Renders a human-readable diagnostic of one generated kernel: the per-
/// index mapping table (kind, reuse tensor, mapped dimension, tile), the
/// resource footprint and occupancy limiter, the modeled traffic breakdown
/// and the roofline verdict. Used by the CLI's --explain and handy when
/// debugging surprising mapping choices.
std::string explainKernel(const ir::Contraction &TC,
                          const GeneratedKernel &Kernel,
                          const gpu::DeviceSpec &Device,
                          unsigned ElementSize = 8);

/// Renders one generation run as a machine-readable metrics JSON document:
/// the contraction and device, elapsed/phase timings, the full
/// EnumerationStats (whose tallies equal the "enumerator.*" entries in the
/// counters section by construction), fallback level, per-kernel model
/// outputs, and the run's counter delta. Schema documented in
/// docs/ARCHITECTURE.md §10; written by cogent_cli --metrics=FILE.
std::string renderMetricsJson(const ir::Contraction &TC,
                              const GenerationResult &Result,
                              const gpu::DeviceSpec &Device);

} // namespace core
} // namespace cogent

#endif // COGENT_CORE_COGENT_H

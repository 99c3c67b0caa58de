//===- analysis/KernelRaceProver.h - Symbolic race & divergence prover ----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KernelRaceProver: a GPUVerify-style symbolic two-thread abstraction over
/// the KernelModel statement tree of one emitted kernel. It reasons about
/// *addresses*: it proves, for two arbitrary distinct threads of the same
/// block, that no pair of shared- or global-memory accesses inside the same
/// barrier interval can touch the same element — or produces a concrete
/// witness (thread pair + coordinate vector + address) when they can.
///
/// Four analyses share the machinery:
///
///   Uniformity (taint). Every scalar location is classified Uniform
///     (provably identical across the threads of a block), ThreadDependent
///     (derived from threadIdx/tid), or Unknown (no classifiable
///     definition). The classification is a fixpoint over the statement
///     tree seeded from the thread/block builtins, flowing through data
///     dependences and control dependence (a value assigned under a
///     divergent guard or loop is itself divergent). Schema roles the
///     generator guarantees uniform — tile bases, step bases, stride
///     variables, trip counts — are checked against their class.
///
///   Race freedom. Accesses are linearized to affine forms over *atoms*:
///     decode coordinates (i_a = lr % 16), thread coordinates (t_a),
///     loop-private iteration coordinates (k_e, x_b) and shared uniform
///     symbols (base_a, kbase_e). Within one barrier interval — barrier
///     intervals reuse the CFG notion of barrier-terminated regions, with
///     barrier-carrying loops unrolled two abstract iterations — the
///     prover solves addr(t1, iv1) == addr(t2, iv2) with t1 != t2. The
///     solver tries, in order: interval disjointness, a GCD divisibility
///     test on the coefficient lattice, a mixed-radix injectivity argument
///     (sorted-stride packing plus a bijective thread decode implies same
///     address => same thread), and finally a bounded concrete enumeration
///     that either proves the pair disjoint or yields a witness. Any two
///     distinct threads count, warp-mates included: no lockstep execution
///     is assumed (Volta schedules threads independently, and the shim
///     harness runs host threads joined only by std::barrier), so a
///     dropped barrier shows up here as a write/read race.
///
///   Barrier divergence. Every barrier must sit under uniform control
///     only: each enclosing guard condition and loop header is classified
///     with the taint lattice, and any divergent enclosing control yields
///     a finding (a divergent barrier deadlocks devices without
///     independent thread scheduling and synchronizes nothing).
///
///   Barrier redundancy and staging overlap. The same interval numbering
///     decides which barriers order anything: a barrier line is redundant
///     when merging the intervals its occurrences separate brings no new
///     pair of accesses to one shared buffer, at least one a write, into
///     one interval. Two written-and-read staging buffers are disjoint
///     when one's last read interval precedes the other's first write.
///
/// KernelLint surfaces the first three analyses as passes 10-12
/// (uniformity, race-freedom, barrier-uniformity) and feeds the fourth to
/// redundant-barrier and smem-lifetime; explainRaces() renders the full
/// derivation for cogent_cli --explain-races.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_ANALYSIS_KERNELRACEPROVER_H
#define COGENT_ANALYSIS_KERNELRACEPROVER_H

#include "analysis/KernelDataflow.h"
#include "analysis/KernelModel.h"
#include "core/KernelPlan.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cogent {
namespace analysis {

//===----------------------------------------------------------------------===//
// Uniformity lattice
//===----------------------------------------------------------------------===//

/// Taint class of one value with respect to the thread id. Ordered as a
/// join lattice: Uniform < Unknown < ThreadDependent.
enum class Uniformity {
  Uniform,         ///< Identical across every thread of a block.
  Unknown,         ///< No classifiable definition reaches the value.
  ThreadDependent, ///< Derived (data or control) from threadIdx/tid.
};

/// Number of Uniformity enumerators (name-table round-trips walk this).
inline constexpr unsigned NumUniformityClasses = 3;

/// Stable identifier, e.g. "thread-dependent".
const char *uniformityName(Uniformity U);

/// Inverse of uniformityName; std::nullopt for unknown names.
std::optional<Uniformity> uniformityFromName(const std::string &Name);

/// Result of the taint analysis (RaceReport::Uniform), parallel to
/// DataflowInfo::Locations.
struct UniformityInfo {
  /// Classes[i] classifies DataflowInfo::Locations[i]. Array locations
  /// carry the join over their stored values' classes.
  std::vector<Uniformity> Classes;
  /// True when the location's value additionally varies across the
  /// iterations of a barrier-free loop — two threads inside one barrier
  /// interval may observe *different* values even when the value is
  /// thread-uniform (they can sit at different iterations).
  std::vector<bool> IterationPrivate;
};

//===----------------------------------------------------------------------===//
// Findings
//===----------------------------------------------------------------------===//

/// Typed finding kinds the prover can report.
enum class RaceFindingKind {
  WriteWriteRace,    ///< Two threads can write the same element.
  WriteReadRace,     ///< A write and a read can touch the same element.
  DivergentBarrier,  ///< A barrier sits under thread-divergent control.
  NonUniformValue,   ///< A schema-uniform role classified thread-dependent.
  UnknownUniformity, ///< An index atom with no classifiable definition.
  NonAffineAccess,   ///< An SMEM/GMEM index failed to linearize.
  UnprovenAccess,    ///< Solver gave up (unknown range / enumeration cap).
};

/// Number of RaceFindingKind enumerators.
inline constexpr unsigned NumRaceFindingKinds = 7;

/// Stable identifier, e.g. "write-write-race".
const char *raceFindingKindName(RaceFindingKind Kind);

/// Inverse of raceFindingKindName; std::nullopt for unknown names.
std::optional<RaceFindingKind> raceFindingKindFromName(const std::string &N);

/// One atom assignment of a witness, giving the value each of the two
/// abstract threads binds. Shared atoms carry equal values by construction.
struct WitnessCoord {
  std::string Coord;
  int64_t First = 0;
  int64_t Second = 0;
};

/// A concrete two-thread counterexample: both threads' coordinate vectors
/// evaluate the reported access forms to the same element address.
struct RaceWitness {
  int64_t Thread1 = 0;
  int64_t Thread2 = 0;
  int64_t Address = 0;
  std::vector<WitnessCoord> Coords;

  /// "threads (17,33) address 33 via i_a=1 i_e=1 | i_a'=..." rendering.
  std::string render() const;
};

/// The affine form of one checked access, exported so tests can replay a
/// witness independently of the solver: address = sum(Coeff * value(Coord))
/// + Constant under either thread's witness column.
struct AccessForm {
  std::string Array;
  bool Write = false;
  unsigned Line = 0;
  std::vector<IndexTerm> Terms;
  int64_t Constant = 0;

  /// Evaluates the form under the witness column selected by \p Second;
  /// atoms absent from \p Coords evaluate to 0.
  int64_t eval(const std::vector<WitnessCoord> &Coords, bool Second) const;
};

/// One typed prover finding.
struct RaceFinding {
  RaceFindingKind Kind = RaceFindingKind::WriteWriteRace;
  std::string Array;      ///< Accessed array for race kinds; else empty.
  unsigned Line = 0;      ///< Primary source line (write for races).
  unsigned OtherLine = 0; ///< Second access line for race kinds.
  std::string Message;
  std::optional<RaceWitness> Witness; ///< Filled for race kinds.
  AccessForm First, Second;           ///< Filled for race kinds.

  /// "write-write-race: s_A line 84 vs 84: ..." rendering.
  std::string render() const;
};

/// True when \p F carries a witness that replays to a true same-address,
/// different-thread access under its recorded forms.
bool replayWitness(const RaceFinding &F);

//===----------------------------------------------------------------------===//
// Prover entry points
//===----------------------------------------------------------------------===//

/// Verdict for one barrier statement (keyed by source line).
struct BarrierVerdict {
  unsigned Line = 0;
  /// True when merging the barrier intervals its occurrences separate puts
  /// no new pair of same-buffer shared-memory accesses, at least one a
  /// write, into one interval: the barrier orders nothing.
  bool Redundant = false;
};

/// Everything one prover run computed.
struct RaceReport {
  std::vector<RaceFinding> Findings;
  UniformityInfo Uniform;
  /// One verdict per barrier source line, in line order.
  std::vector<BarrierVerdict> Barriers;
  /// True when two shared buffers, each written and read, never share a
  /// barrier interval: one's last read interval precedes the other's
  /// first write interval, so the allocations could share storage.
  bool DisjointSmemStaging = false;

  // Solver statistics (rendered by explainRaces, asserted by tests).
  unsigned Intervals = 0;          ///< Barrier intervals analyzed.
  unsigned AccessesChecked = 0;    ///< SMEM/GMEM access instances.
  unsigned PairsChecked = 0;       ///< Same-array same-interval pairs.
  unsigned ProvedByInterval = 0;   ///< Disjoint address ranges.
  unsigned ProvedByGcd = 0;        ///< GCD divisibility refutation.
  unsigned ProvedByInjectivity = 0;///< Mixed-radix packing argument.
  unsigned ProvedByEnumeration = 0;///< Exhaustive bounded enumeration.

  /// True when no finding of the given kind exists.
  bool raceFree() const {
    for (const RaceFinding &F : Findings)
      if (F.Kind == RaceFindingKind::WriteWriteRace ||
          F.Kind == RaceFindingKind::WriteReadRace)
        return false;
    return true;
  }
};

/// Runs all three analyses over \p M (parsed from a kernel \p Plan
/// emitted) using \p Flow's location table. Bounded enumeration stops past
/// 2^20 evaluated assignments per access pair (an UnprovenAccess warning is
/// reported instead).
RaceReport proveRaces(const core::KernelPlan &Plan, const KernelModel &M,
                      const DataflowInfo &Flow);

/// Human-oriented dump for cogent_cli --explain-races: the uniformity
/// table, barrier control classes, interval/access census, solver
/// statistics and any findings with witnesses.
std::string explainRaces(const core::KernelPlan &Plan,
                         const std::string &KernelSource);

} // namespace analysis
} // namespace cogent

#endif // COGENT_ANALYSIS_KERNELRACEPROVER_H

//===- analysis/KernelDataflow.h - CFG + liveness over emitted kernels ----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// KernelDataflow: a classic dataflow framework over the KernelModel
/// statement tree of one emitted kernel. Where KernelLint's original
/// passes check *shape* (strides, guards, declarations), this layer
/// recovers *flow*: which values are live where and which uses no
/// definition reaches. Which barrier orders anything is an address question
/// and belongs to KernelRaceProver, which also reuses this location table.
///
/// CFG shape. Basic blocks are built by a single walk of the statement
/// tree. Three constructs end a block:
///   - a barrier (blocks therefore never straddle a synchronization
///     point, making barriers region boundaries exactly as the paper's
///     load/compute/store phases intend),
///   - a loop (pre-header -> header -> body... -> latch -> header back
///     edge, plus a header -> exit edge that models the zero-trip case),
///   - a guard (branch -> then-body -> join, plus the branch -> join
///     fall-through edge; the emitted schema has no else).
///
/// Locations and lattice. Every named value is a Location in one of four
/// spaces: per-thread scalars (strong, killing definitions), register
/// arrays and shared arrays (array-granular MayDef — a store never kills,
/// because other elements survive), and global arrays (MayDef and
/// exit-live, so output stores are never dead). Both solvers are
/// bitvector fixpoints over locations, sharing one 64-bit word set:
///   - backward may-liveness (drives dead-store detection, the per-location
///     use counts and the register-pressure walk),
///   - forward "may be defined" (a use of a location is undefined iff no
///     path from entry to it defines that location — exactly "no
///     definition reaches it").
/// #defines, extent parameters, kernel pointer parameters and the thread
/// builtins of both dialects are implicit entry definitions.
///
/// The three consumers (surfaced as KernelLint passes) are:
///   register pressure — peak simultaneous live scalar width plus the
///     declared register tiles, to compare against the plan and budget;
///   dead stores — definitions never observed by any reachable use;
///   SMEM lifetime — written/read flags per staging buffer (the race
///     prover adds whether two buffers' barrier intervals overlap).
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_ANALYSIS_KERNELDATAFLOW_H
#define COGENT_ANALYSIS_KERNELDATAFLOW_H

#include "analysis/KernelModel.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cogent {
namespace analysis {

/// Address space of a Location.
enum class LocSpace {
  Scalar,        ///< Per-thread scalar; assignments kill.
  RegisterArray, ///< r_A / r_B / r_C; array-granular MayDef.
  SharedArray,   ///< __shared__/__local staging; array-granular MayDef.
  GlobalArray,   ///< g_A / g_B / g_C; MayDef and live at kernel exit.
};

/// One named storage location.
struct Location {
  std::string Name;
  LocSpace Space = LocSpace::Scalar;
  /// 32-bit registers one element of this location occupies (2 for
  /// double / long long, 1 otherwise). Meaningful for Scalar and
  /// RegisterArray spaces.
  unsigned Width = 1;
  /// Element count for array spaces when the declared size evaluates
  /// under the #define table; 1 for scalars, 0 when unknown.
  int64_t Elements = 1;
  /// Defined at kernel entry (builtin, parameter, #define); implicit
  /// locations are exempt from dead-store and pressure accounting.
  bool Implicit = false;
};

/// How one statement touches one location.
enum class AccessKind {
  Use,    ///< Read.
  Def,    ///< Killing write (scalars only).
  MayDef, ///< Non-killing write (one array element).
};

/// One ordered access event within a basic block.
struct Access {
  unsigned Loc = 0;
  AccessKind Kind = AccessKind::Use;
  unsigned Line = 0;
  /// Definition number for Def/MayDef events (index into DataflowInfo::
  /// Defs), ~0u for uses.
  unsigned DefId = ~0u;
};

/// One basic block of the CFG.
struct BasicBlock {
  std::string Label;
  std::vector<Access> Events;
  std::vector<unsigned> Succs;
  std::vector<unsigned> Preds;
  bool EndsWithBarrier = false;
  unsigned BarrierLine = 0;
};

/// One definition site.
struct DefInfo {
  unsigned Loc = 0;
  unsigned Line = 0;
  AccessKind Kind = AccessKind::Def;
  /// True when no reachable use observes this definition and the
  /// location is not exit-live: the store is dead.
  bool Dead = false;
};

/// A read of a location no definition reaches (and that is not an
/// implicit entry definition).
struct UndefinedUse {
  unsigned Loc = 0;
  unsigned Line = 0;
};

/// Lifetime summary for one shared staging buffer.
struct SmemBufferLifetime {
  unsigned Loc = 0;
  bool Written = false;
  bool Read = false;
};

/// Everything the solvers computed for one kernel.
struct DataflowInfo {
  std::vector<Location> Locations;
  std::vector<BasicBlock> Blocks; ///< Blocks[0] is the entry block.
  std::vector<DefInfo> Defs;
  std::vector<UndefinedUse> UndefinedUses;
  std::vector<SmemBufferLifetime> SmemLifetimes;
  /// Number of use events per location (0: the location is never read).
  std::vector<unsigned> UseCounts;

  /// Peak simultaneous live scalar width (32-bit registers) across all
  /// program points; implicit locations are excluded.
  unsigned MaxLiveScalarRegs = 0;
  /// Registers occupied by the declared register arrays (elements x
  /// element width).
  unsigned RegisterArrayRegs = 0;

  /// Total register-pressure estimate per thread.
  unsigned pressure() const { return RegisterArrayRegs + MaxLiveScalarRegs; }

  /// Location index for \p Name, if known.
  std::optional<unsigned> location(const std::string &Name) const;
};

/// Builds the CFG over \p M and runs both solvers plus the derived
/// analyses. Fails (VerificationFailed) only when the model is
/// structurally unusable — callers that hold a parsed model never see
/// that in practice.
ErrorOr<DataflowInfo> buildDataflow(const KernelModel &M);

/// Documented slack between the source-side pressure estimate and the
/// plan-side analytic estimate (core::planRegisterPressure). The source
/// walk counts every simultaneously-live declared scalar while the plan
/// mirror prices index arithmetic per dimension, and the two drift by
/// the per-phase temporaries (slice-load cursors, store coordinates) the
/// mirror folds into its base term. 64 registers bounds that drift with
/// ~2x headroom across the TCCG suite on both devices (asserted by
/// test_kernel_dataflow) while staying far below what the targeted
/// register-inflation mutations add (>= 168 registers).
inline constexpr unsigned PressureToleranceRegs = 64;

/// Human-oriented dump for cogent_cli --explain-dataflow: the CFG, the
/// per-buffer lifetimes, the pressure table, the dead definitions and the
/// undefined uses.
std::string explainDataflow(const KernelModel &M, const DataflowInfo &Info);

} // namespace analysis
} // namespace cogent

#endif // COGENT_ANALYSIS_KERNELDATAFLOW_H

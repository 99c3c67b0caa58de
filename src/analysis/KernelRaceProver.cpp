//===- analysis/KernelRaceProver.cpp - Symbolic race & divergence prover --===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Implementation layout:
//
//   1. Name tables for the public enums.
//   2. Taint fixpoint (uniformity + iteration-privacy) over the statement
//      tree.
//   3. An ambient environment restricted to single-assignment scalars (the
//      lint ambient would constant-fold loop-carried values like the
//      double-buffer parity and corrupt the symbolic forms).
//   4. The barrier-loop index; atom ranges (decode coordinates, loop
//      variables, tile bases) come from KernelModel's RangeAnalysis.
//   5. Thread-decode group detection: `q = <thread source>` followed by
//      `c = q % K; q /= D;` chains, the generator's only way of spreading
//      a thread id over coordinates. Bijective groups let the solver map
//      coordinate values back to the unique thread that produces them.
//   6. Access collection: a barrier-interval walk with two-iteration
//      unrolling of barrier-carrying loops; every SMEM/GMEM access is
//      linearized, expanded through single-assignment definitions, and
//      split into shared (uniform) and private (per-thread) atoms.
//   7. The two-thread solver: interval disjointness, GCD refutation, a
//      mixed-radix injectivity argument for same-access pairs, and a
//      hash-join bounded enumeration that either proves disjointness or
//      produces a replayable witness.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelRaceProver.h"

#include "support/Counters.h"

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>

namespace cogent {
namespace analysis {

using core::KernelPlan;

COGENT_COUNTER(NumRaceFindings, "race.findings",
               "Typed findings emitted by the race prover");
COGENT_COUNTER(NumRacePairs, "race.pairs-checked",
               "Same-array same-interval access pairs solved");
COGENT_COUNTER(NumRedundantBarriers, "race.redundant-barriers",
               "Barrier lines that order no shared-memory access pair");

//===----------------------------------------------------------------------===//
// Name tables
//===----------------------------------------------------------------------===//

const char *uniformityName(Uniformity U) {
  switch (U) {
  case Uniformity::Uniform:
    return "uniform";
  case Uniformity::Unknown:
    return "unknown";
  case Uniformity::ThreadDependent:
    return "thread-dependent";
  }
  return "uniform";
}

std::optional<Uniformity> uniformityFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumUniformityClasses; ++I)
    if (Name == uniformityName(static_cast<Uniformity>(I)))
      return static_cast<Uniformity>(I);
  return std::nullopt;
}

const char *raceFindingKindName(RaceFindingKind Kind) {
  switch (Kind) {
  case RaceFindingKind::WriteWriteRace:
    return "write-write-race";
  case RaceFindingKind::WriteReadRace:
    return "write-read-race";
  case RaceFindingKind::DivergentBarrier:
    return "divergent-barrier";
  case RaceFindingKind::NonUniformValue:
    return "non-uniform-value";
  case RaceFindingKind::UnknownUniformity:
    return "unknown-uniformity";
  case RaceFindingKind::NonAffineAccess:
    return "non-affine-access";
  case RaceFindingKind::UnprovenAccess:
    return "unproven-access";
  }
  return "write-write-race";
}

std::optional<RaceFindingKind>
raceFindingKindFromName(const std::string &N) {
  for (unsigned I = 0; I < NumRaceFindingKinds; ++I)
    if (N == raceFindingKindName(static_cast<RaceFindingKind>(I)))
      return static_cast<RaceFindingKind>(I);
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Small shared helpers
//===----------------------------------------------------------------------===//

namespace {

bool hasPrefix(const std::string &S, const char *P) {
  return S.rfind(P, 0) == 0;
}

bool isThreadBuiltin(const std::string &N) {
  return N == "threadIdx.x" || N == "threadIdx.y" || N == "threadIdx.z" ||
         N == "get_local_id(0)" || N == "get_local_id(1)" ||
         N == "get_local_id(2)" || N == "get_global_id(0)" ||
         N == "get_global_id(1)" || N == "get_global_id(2)";
}

bool isUniformBuiltin(const std::string &N) {
  return hasPrefix(N, "blockIdx.") || hasPrefix(N, "blockDim.") ||
         hasPrefix(N, "gridDim.") || hasPrefix(N, "get_group_id(") ||
         hasPrefix(N, "get_local_size(") || hasPrefix(N, "get_num_groups(");
}

bool containsBarrier(const std::vector<Stmt> &Body) {
  for (const Stmt &S : Body) {
    if (S.Kind == StmtKind::Barrier)
      return true;
    if (!S.Body.empty() && containsBarrier(S.Body))
      return true;
  }
  return false;
}

/// Strips the side prime and "@<iter>" instance suffixes an atom may carry,
/// recovering the source-level name.
std::string canonicalAtom(std::string Name) {
  while (!Name.empty() && Name.back() == '\'')
    Name.pop_back();
  size_t At = Name.find('@');
  if (At != std::string::npos)
    Name.resize(At);
  return Name;
}

//===----------------------------------------------------------------------===//
// Taint fixpoint
//===----------------------------------------------------------------------===//

Uniformity joinU(Uniformity A, Uniformity B) {
  return static_cast<Uniformity>(
      std::max(static_cast<int>(A), static_cast<int>(B)));
}

struct TaintResult {
  std::unordered_map<std::string, Uniformity> Class;
  std::unordered_map<std::string, bool> Priv;
  std::unordered_map<std::string, unsigned> FirstDefLine;
  bool Changed = false;

  Uniformity classOf(const std::string &Name) const {
    if (isThreadBuiltin(Name))
      return Uniformity::ThreadDependent;
    if (isUniformBuiltin(Name))
      return Uniformity::Uniform;
    auto It = Class.find(Name);
    return It == Class.end() ? Uniformity::Unknown : It->second;
  }
  bool privOf(const std::string &Name) const {
    auto It = Priv.find(Name);
    return It != Priv.end() && It->second;
  }

  void update(const std::string &Name, Uniformity U, bool P, unsigned Line) {
    auto [It, Inserted] = Class.emplace(Name, U);
    if (Inserted)
      Changed = true;
    else if (joinU(It->second, U) != It->second) {
      It->second = joinU(It->second, U);
      Changed = true;
    }
    bool &PR = Priv[Name];
    if (P && !PR) {
      PR = true;
      Changed = true;
    }
    FirstDefLine.emplace(Name, Line);
  }
};

Uniformity exprClass(const Expr &E, const TaintResult &T) {
  switch (E.Kind) {
  case ExprKind::Num:
    return Uniformity::Uniform;
  case ExprKind::Var:
    return T.classOf(E.Name);
  case ExprKind::Index:
    // The element an array load observes is chosen per thread; treat any
    // load as thread-dependent (conservative, and exact for this schema:
    // array values only ever flow into register tiles).
    return Uniformity::ThreadDependent;
  default: {
    Uniformity U = Uniformity::Uniform;
    for (const Expr &Kid : E.Kids)
      U = joinU(U, exprClass(Kid, T));
    return U;
  }
  }
}

bool exprPriv(const Expr &E, const TaintResult &T) {
  switch (E.Kind) {
  case ExprKind::Num:
    return false;
  case ExprKind::Var:
    return T.privOf(E.Name);
  case ExprKind::Index:
    return true;
  default:
    for (const Expr &Kid : E.Kids)
      if (exprPriv(Kid, T))
        return true;
    return false;
  }
}

void taintWalk(const std::vector<Stmt> &Body, Uniformity Ctrl, bool IterCtrl,
               TaintResult &T) {
  for (const Stmt &S : Body) {
    switch (S.Kind) {
    case StmtKind::Decl:
    case StmtKind::Assign:
    case StmtKind::CompoundMul:
    case StmtKind::CompoundDiv: {
      Uniformity U = joinU(exprClass(S.Value, T), Ctrl);
      bool P = exprPriv(S.Value, T) || IterCtrl;
      if (S.Kind == StmtKind::CompoundMul ||
          S.Kind == StmtKind::CompoundDiv) {
        U = joinU(U, T.classOf(S.Name));
        P = P || T.privOf(S.Name);
      }
      T.update(S.Name, U, P, S.Line);
      break;
    }
    case StmtKind::ArrayStore: {
      Uniformity U = joinU(joinU(exprClass(S.Value, T), exprClass(S.Index, T)),
                           Ctrl);
      bool P = exprPriv(S.Value, T) || exprPriv(S.Index, T) || IterCtrl;
      T.update(S.Name, U, P, S.Line);
      break;
    }
    case StmtKind::Loop: {
      Uniformity HC = joinU(
          Ctrl, joinU(exprClass(S.LoopInit, T),
                      joinU(exprClass(S.LoopBound, T),
                            exprClass(S.LoopStep, T))));
      // Iterations of a barrier-free loop are unsynchronized: two threads
      // inside one barrier interval may sit at different iterations, so
      // everything the loop variable feeds is iteration-private.
      bool BarrierFree = !containsBarrier(S.Body);
      bool P = IterCtrl || BarrierFree || exprPriv(S.LoopInit, T) ||
               exprPriv(S.LoopBound, T) || exprPriv(S.LoopStep, T);
      T.update(S.LoopVar, HC, P, S.Line);
      taintWalk(S.Body, HC, P, T);
      break;
    }
    case StmtKind::If: {
      Uniformity HC = joinU(Ctrl, exprClass(S.Value, T));
      bool P = IterCtrl || exprPriv(S.Value, T);
      taintWalk(S.Body, HC, P, T);
      break;
    }
    case StmtKind::Block:
      taintWalk(S.Body, Ctrl, IterCtrl, T);
      break;
    default:
      break;
    }
  }
}

TaintResult runTaint(const KernelModel &M, const DataflowInfo &Flow) {
  TaintResult T;
  for (const auto &[Name, Value] : M.Defines) {
    (void)Value;
    T.Class[Name] = Uniformity::Uniform;
  }
  for (const Location &L : Flow.Locations)
    if (L.Implicit && !isThreadBuiltin(L.Name))
      T.Class.emplace(L.Name, Uniformity::Uniform);
  for (unsigned Iter = 0; Iter < 64; ++Iter) {
    T.Changed = false;
    taintWalk(M.Body, Uniformity::Uniform, false, T);
    if (!T.Changed)
      break;
  }
  return T;
}

/// The taint result as UniformityInfo, parallel to \p Flow's locations.
UniformityInfo uniformityOf(const TaintResult &T, const DataflowInfo &Flow) {
  UniformityInfo Info;
  Info.Classes.reserve(Flow.Locations.size());
  Info.IterationPrivate.reserve(Flow.Locations.size());
  for (const Location &L : Flow.Locations) {
    Info.Classes.push_back(T.classOf(L.Name));
    Info.IterationPrivate.push_back(T.privOf(L.Name));
  }
  return Info;
}

//===----------------------------------------------------------------------===//
// Barrier-loop index
//===----------------------------------------------------------------------===//

/// Per first-defined name, the stack of barrier-carrying loops lexically
/// enclosing that definition (instance suffixes are derived from it during
/// the unrolled walk).
using BarrierLoopIndex =
    std::unordered_map<std::string, std::vector<const Stmt *>>;

void indexBarrierLoops(const std::vector<Stmt> &Body,
                       std::vector<const Stmt *> &BarrierLoops,
                       BarrierLoopIndex &Out) {
  for (const Stmt &S : Body) {
    switch (S.Kind) {
    case StmtKind::Decl:
    case StmtKind::Assign:
      Out.emplace(S.Name, BarrierLoops);
      break;
    case StmtKind::Loop: {
      // The loop variable of a barrier-carrying loop takes a different
      // value in each unrolled instance, so its suffix chain includes the
      // loop itself.
      bool Barr = containsBarrier(S.Body);
      if (Barr)
        BarrierLoops.push_back(&S);
      Out.emplace(S.LoopVar, BarrierLoops);
      indexBarrierLoops(S.Body, BarrierLoops, Out);
      if (Barr)
        BarrierLoops.pop_back();
      break;
    }
    case StmtKind::If:
    case StmtKind::Block:
      indexBarrierLoops(S.Body, BarrierLoops, Out);
      break;
    default:
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// Thread-decode groups
//===----------------------------------------------------------------------===//

enum class TidSrc { X, Y, Lin };

struct DecodeGroup {
  TidSrc Src = TidSrc::Lin;
  std::vector<std::string> Coords;
  std::vector<int64_t> Radix;
  /// True when the coordinate tuple determines the source value: every
  /// divisor matched its modulus and the radix product covers the source
  /// range. Non-bijective decodes pin nothing (sound: more threads race).
  bool Bijective = true;
  /// Exclusive upper bound of the source value (TBX/TBY for direct thread
  /// coordinates, the slice-loop trip bound for linear cursors).
  int64_t SrcBound = 0;
  /// Innermost loop whose body holds the decode chain (nullptr at kernel
  /// scope). Coordinate names repeat across slice loops — a double-buffered
  /// kernel decodes i_a in its prologue and again in its steady state — so
  /// a group only speaks for accesses inside this loop.
  const Stmt *Scope = nullptr;
};

const Stmt *firstLoop(const DefCensus &Defs, const std::string &Var) {
  auto It = Defs.Loops.find(Var);
  return It == Defs.Loops.end() ? nullptr : It->second.front();
}

void findGroups(const std::vector<Stmt> &Body, const DefCensus &Defs,
                const Env &Ambient, std::vector<DecodeGroup> &Out,
                const Stmt *EnclosingLoop = nullptr) {
  auto define = [&](const char *Name) -> int64_t {
    auto It = Ambient.find(Name);
    return It == Ambient.end() ? 0 : It->second;
  };
  for (size_t I = 0; I < Body.size(); ++I) {
    const Stmt &S = Body[I];
    if (!S.Body.empty())
      findGroups(S.Body, Defs, Ambient, Out,
                 S.Kind == StmtKind::Loop ? &S : EnclosingLoop);
    if (S.Kind != StmtKind::Decl || S.Value.Kind != ExprKind::Var)
      continue;
    const std::string &SrcName = S.Value.Name;
    std::optional<TidSrc> Src;
    int64_t Bound = 0;
    if (SrcName == "threadIdx.x" || SrcName == "get_local_id(0)") {
      Src = TidSrc::X;
      Bound = define("TBX");
    } else if (SrcName == "threadIdx.y" || SrcName == "get_local_id(1)") {
      Src = TidSrc::Y;
      Bound = define("TBY");
    } else if (SrcName == "tid") {
      Src = TidSrc::Lin;
      Bound = define("NTHREADS");
    } else if (const Stmt *L = (EnclosingLoop &&
                                EnclosingLoop->LoopVar == SrcName)
                                   ? EnclosingLoop
                                   : firstLoop(Defs, SrcName)) {
      // A cooperative slice cursor: for (l = tid; l < N; l += NTHREADS).
      // Emitted staging loops all reuse the cursor name `l`, so the
      // *enclosing* loop must win over a whole-model name lookup — the
      // first loop named `l` may be a different slice with a different
      // trip bound (which would poison SrcBound below).
      std::optional<int64_t> Step = evalExpr(L->LoopStep, Ambient);
      std::optional<int64_t> B = evalExpr(L->LoopBound, Ambient);
      if (L->LoopInit.Kind == ExprKind::Var && L->LoopInit.Name == "tid" &&
          Step && *Step == define("NTHREADS") && B) {
        Src = TidSrc::Lin;
        Bound = *B;
      }
    }
    if (!Src || Bound <= 0)
      continue;
    DecodeGroup G;
    G.Src = *Src;
    G.SrcBound = Bound;
    G.Scope = EnclosingLoop;
    int64_t LastK = 0;
    bool SawDiv = true; // The first coord needs no preceding divide.
    for (size_t J = I + 1; J < Body.size(); ++J) {
      const Stmt &N = Body[J];
      if (N.Kind == StmtKind::Decl && N.Value.Kind == ExprKind::Mod &&
          N.Value.Kids[0].Kind == ExprKind::Var &&
          N.Value.Kids[0].Name == S.Name) {
        std::optional<int64_t> K = evalExpr(N.Value.Kids[1], Ambient);
        if (!K || *K <= 0)
          break;
        if (!SawDiv)
          G.Bijective = false; // Two mods without a divide between them.
        G.Coords.push_back(N.Name);
        G.Radix.push_back(*K);
        LastK = *K;
        SawDiv = false;
        continue;
      }
      if (N.Kind == StmtKind::CompoundDiv && N.Name == S.Name) {
        std::optional<int64_t> D = evalExpr(N.Value, Ambient);
        if (!D || *D <= 0)
          break;
        if (D != LastK)
          G.Bijective = false;
        SawDiv = true;
        continue;
      }
      break;
    }
    if (G.Coords.empty())
      continue;
    int64_t Product = 1;
    for (int64_t K : G.Radix)
      Product = (Product > (int64_t{1} << 40)) ? Product : Product * K;
    if (Product < Bound)
      G.Bijective = false;
    Out.push_back(std::move(G));
  }
}

} // namespace
} // namespace analysis
} // namespace cogent

//===----------------------------------------------------------------------===//
// Access collection and the two-thread solver
//===----------------------------------------------------------------------===//

namespace cogent {
namespace analysis {
namespace {

/// Bounded enumeration gives up past this many evaluated assignments per
/// access pair (an UnprovenAccess warning is reported instead).
constexpr uint64_t EnumerationCap = 1u << 20;

/// One linearized guard conjunct: sum(Coeff * atom) + Const {<, <=} 0.
/// Shared atoms carry their instance suffix; private atoms are raw (the
/// side they belong to is implied by the owning access).
struct GuardLin {
  std::vector<std::pair<std::string, int64_t>> Terms;
  int64_t Const = 0;
  bool Strict = true;
};

/// One private (per-thread / per-iteration) term of an access form.
struct PTerm {
  std::string Name;
  int64_t Coeff = 0;
  std::optional<ValueRange> Range;
};

/// One SMEM/GMEM access instance inside the unrolled interval walk.
struct AccessInst {
  const Stmt *S = nullptr;
  std::string Instance; ///< Concatenated unroll iteration digits.
  std::string Array;
  bool Write = false;
  unsigned Line = 0;
  std::map<std::string, int64_t> Shared; ///< Suffixed uniform atoms.
  std::vector<PTerm> Priv;
  int64_t Const = 0;
  std::vector<GuardLin> Guards;
  unsigned Interval = 0;
  std::vector<const DecodeGroup *> Groups; ///< Decode groups in scope.
};

struct PinState {
  std::optional<int64_t> X, Y, Lin;
  bool Bad = false;

  void pin(std::optional<int64_t> &Slot, int64_t V) {
    if (Slot && *Slot != V)
      Bad = true;
    else
      Slot = V;
  }
};

/// The first pair of distinct threads drawn from \p S1 x \p S2, if any.
std::optional<std::pair<int64_t, int64_t>>
pickPair(const std::vector<int64_t> &S1, const std::vector<int64_t> &S2) {
  for (int64_t T1 : S1)
    for (int64_t T2 : S2)
      if (T1 != T2)
        return std::make_pair(T1, T2);
  return std::nullopt;
}

class Prover {
public:
  Prover(const KernelPlan &Plan, const KernelModel &M,
         const DataflowInfo &Flow)
      : Plan(Plan), M(M), Flow(Flow) {}

  RaceReport run();

private:
  const KernelPlan &Plan;
  const KernelModel &M;
  const DataflowInfo &Flow;

  RaceReport R;
  TaintResult Taint;
  DefCensus Defs;
  BarrierLoopIndex BarrierLoopsOf;
  Env Ambient;
  std::unique_ptr<RangeAnalysis> Ranges;
  std::vector<DecodeGroup> Groups;

  // Collection state.
  std::vector<AccessInst> Accesses;
  unsigned Interval = 0;
  /// BarrierLines[k] is the source line of the barrier occurrence that
  /// separates interval k from interval k + 1.
  std::vector<unsigned> BarrierLines;
  /// Every shared-array access by interval, whether or not its index
  /// linearizes: the barrier verdicts must see them all.
  struct SmemTouch {
    unsigned Loc = 0;
    unsigned Interval = 0;
    bool Write = false;
  };
  std::vector<SmemTouch> Touches;
  std::vector<const Expr *> GuardStack;
  std::vector<std::pair<const Stmt *, unsigned>> UnrollStack;
  std::vector<const Stmt *> LoopStack; ///< Every loop enclosing the walk.

  std::set<std::tuple<int, std::string, unsigned, unsigned>> Seen;
  std::set<std::string> WarnedUnknown;

  int64_t define(const char *Name) const {
    auto It = M.Defines.find(Name);
    return It == M.Defines.end() ? 1 : It->second;
  }

  /// The value range of an atom, instance suffixes stripped.
  std::optional<ValueRange> rangeOf(const std::string &Atom) {
    return Ranges->ofName(canonicalAtom(Atom));
  }

  void finding(RaceFindingKind K, std::string Array, unsigned Line,
               unsigned Other, std::string Msg) {
    auto Key = std::make_tuple(static_cast<int>(K), Array,
                               std::min(Line, Other ? Other : Line),
                               std::max(Line, Other));
    if (!Seen.insert(Key).second)
      return;
    RaceFinding F;
    F.Kind = K;
    F.Array = std::move(Array);
    F.Line = Line;
    F.OtherLine = Other;
    F.Message = std::move(Msg);
    R.Findings.push_back(std::move(F));
    ++NumRaceFindings;
  }

  // --- schema role + divergence checks ---
  void checkSchemaRoles();
  void divergenceWalk(const std::vector<Stmt> &Body, Uniformity Ctrl,
                      const std::string &CtrlDesc);

  // --- linearization ---
  std::optional<IndexForm> linearizeExpand(const Expr &E) const;
  std::string instanceSuffixFor(const std::string &Name) const;

  // --- collection ---
  void walk(const std::vector<Stmt> &Body);
  void scanReads(const Stmt &S, const Expr &E);
  void emitAccess(const Stmt &S, const Expr &IndexE, unsigned Loc,
                  bool Write);
  void addGuard(AccessInst &A, const Expr &Cond);

  // --- barrier verdicts and staging overlap ---
  void judgeBarriers();

  // --- solving ---
  void solvePair(const AccessInst &A, const AccessInst &B, bool Self);
  bool proveInjective(const AccessInst &A);
  void enumeratePair(const AccessInst &A, const AccessInst &B,
                     const std::map<std::string, int64_t> &SharedDiff);
  PinState computePins(const AccessInst &A, const Env &Vals);
  std::vector<int64_t> threadsOf(const PinState &PS) const;
  void emitRace(const AccessInst &A, const AccessInst &B, const Env &Sig,
                const Env &AVals, const Env &BVals, int64_t T1, int64_t T2,
                int64_t Addr);
  void unproven(const AccessInst &A, const AccessInst &B, std::string Why);
  AccessForm formOf(const AccessInst &X, bool Second) const;
};

void addTermTo(IndexForm &F, const std::string &Coord, int64_t Coeff) {
  if (Coeff == 0)
    return;
  for (size_t I = 0; I < F.Terms.size(); ++I) {
    if (F.Terms[I].Coord == Coord) {
      F.Terms[I].Coeff += Coeff;
      if (F.Terms[I].Coeff == 0)
        F.Terms.erase(F.Terms.begin() + I);
      return;
    }
  }
  F.Terms.push_back({Coord, Coeff});
}

std::optional<IndexForm> Prover::linearizeExpand(const Expr &E) const {
  std::optional<IndexForm> F = linearizeIndex(E, Ambient);
  if (!F)
    return std::nullopt;
  // Substitute single-assignment definitions until only atoms remain:
  // decode coordinates and tile bases fail to linearize (Mod) and stop
  // the expansion naturally.
  for (unsigned Iter = 0; Iter < 8; ++Iter) {
    bool Changed = false;
    IndexForm NF;
    NF.Constant = F->Constant;
    for (const IndexTerm &T : F->Terms) {
      const Stmt *D = Defs.singleDef(T.Coord);
      std::optional<IndexForm> Sub;
      if (D && D->Kind != StmtKind::ArrayStore)
        Sub = linearizeIndex(D->Value, Ambient);
      bool SelfRef = false;
      if (Sub)
        for (const IndexTerm &ST : Sub->Terms)
          SelfRef |= ST.Coord == T.Coord;
      if (Sub && !SelfRef) {
        NF.Constant += T.Coeff * Sub->Constant;
        for (const IndexTerm &ST : Sub->Terms)
          addTermTo(NF, ST.Coord, ST.Coeff * T.Coeff);
        Changed = true;
      } else {
        addTermTo(NF, T.Coord, T.Coeff);
      }
    }
    *F = std::move(NF);
    if (!Changed)
      break;
  }
  return F;
}

std::string Prover::instanceSuffixFor(const std::string &Name) const {
  auto It = BarrierLoopsOf.find(canonicalAtom(Name));
  if (It == BarrierLoopsOf.end())
    return std::string();
  std::string Suffix;
  for (const Stmt *L : It->second)
    for (const auto &[Loop, IterNo] : UnrollStack)
      if (Loop == L)
        Suffix += "@" + std::to_string(IterNo);
  return Suffix;
}

void Prover::checkSchemaRoles() {
  auto expectUniform = [](const std::string &N) {
    return N == "numSteps" || N == "totalBlocks" || hasPrefix(N, "nt_") ||
           hasPrefix(N, "ns_") || hasPrefix(N, "base_") ||
           hasPrefix(N, "kbase_") || hasPrefix(N, "strA_") ||
           hasPrefix(N, "strB_") || hasPrefix(N, "strC_");
  };
  auto expectThread = [](const std::string &N) {
    return N == "tid" || (N.size() == 3 && N[0] == 't' && N[1] == '_');
  };
  for (size_t I = 0; I < Flow.Locations.size(); ++I) {
    const Location &L = Flow.Locations[I];
    if (L.Space != LocSpace::Scalar || L.Implicit)
      continue;
    Uniformity U = R.Uniform.Classes[I];
    unsigned Line = 0;
    if (auto It = Taint.FirstDefLine.find(L.Name);
        It != Taint.FirstDefLine.end())
      Line = It->second;
    if (expectUniform(L.Name)) {
      if (U == Uniformity::ThreadDependent)
        finding(RaceFindingKind::NonUniformValue, L.Name, Line, 0,
                "schema role '" + L.Name +
                    "' must be thread-uniform but classified " +
                    uniformityName(U));
      else if (U == Uniformity::Unknown)
        finding(RaceFindingKind::UnknownUniformity, L.Name, Line, 0,
                "schema role '" + L.Name + "' has no classifiable definition");
    } else if (expectThread(L.Name) && U == Uniformity::Uniform) {
      finding(RaceFindingKind::NonUniformValue, L.Name, Line, 0,
              "schema role '" + L.Name +
                  "' must be thread-dependent but classified uniform");
    }
  }
}

void Prover::divergenceWalk(const std::vector<Stmt> &Body, Uniformity Ctrl,
                            const std::string &CtrlDesc) {
  for (const Stmt &S : Body) {
    switch (S.Kind) {
    case StmtKind::Barrier:
      if (Ctrl == Uniformity::ThreadDependent)
        finding(RaceFindingKind::DivergentBarrier, std::string(), S.Line, 0,
                "barrier under thread-divergent control (" + CtrlDesc + ")");
      else if (Ctrl == Uniformity::Unknown)
        finding(RaceFindingKind::UnknownUniformity, std::string(), S.Line, 0,
                "barrier under control of unknown uniformity (" + CtrlDesc +
                    ")");
      break;
    case StmtKind::Loop: {
      Uniformity HC = joinU(
          Ctrl, joinU(exprClass(S.LoopInit, Taint),
                      joinU(exprClass(S.LoopBound, Taint),
                            exprClass(S.LoopStep, Taint))));
      std::string Desc = CtrlDesc;
      if (HC != Ctrl || Desc.empty())
        Desc = "loop " + S.LoopVar + " < " + renderExpr(S.LoopBound);
      divergenceWalk(S.Body, HC, HC == Ctrl ? CtrlDesc : Desc);
      break;
    }
    case StmtKind::If: {
      Uniformity HC = joinU(Ctrl, exprClass(S.Value, Taint));
      divergenceWalk(S.Body, HC,
                     HC == Ctrl ? CtrlDesc : renderExpr(S.Value));
      break;
    }
    case StmtKind::Block:
      divergenceWalk(S.Body, Ctrl, CtrlDesc);
      break;
    default:
      break;
    }
  }
}

void Prover::scanReads(const Stmt &S, const Expr &E) {
  forEachIndexExpr(E, [&](const Expr &Ref) {
    std::optional<unsigned> Loc = Flow.location(Ref.Name);
    if (!Loc)
      return;
    LocSpace Space = Flow.Locations[*Loc].Space;
    if (Space != LocSpace::SharedArray && Space != LocSpace::GlobalArray)
      return;
    emitAccess(S, Ref.Kids[0], *Loc, /*Write=*/false);
  });
}

void Prover::walk(const std::vector<Stmt> &Body) {
  for (const Stmt &S : Body) {
    switch (S.Kind) {
    case StmtKind::Barrier:
      BarrierLines.push_back(S.Line);
      ++Interval;
      break;
    case StmtKind::ArrayStore: {
      if (std::optional<unsigned> Loc = Flow.location(S.Name)) {
        LocSpace Space = Flow.Locations[*Loc].Space;
        if (Space == LocSpace::SharedArray && S.Accumulate)
          Touches.push_back({*Loc, Interval, /*Write=*/false});
        if (Space == LocSpace::SharedArray || Space == LocSpace::GlobalArray)
          emitAccess(S, S.Index, *Loc, /*Write=*/true);
      }
      scanReads(S, S.Value);
      break;
    }
    case StmtKind::Decl:
    case StmtKind::Assign:
    case StmtKind::CompoundMul:
    case StmtKind::CompoundDiv:
      scanReads(S, S.Value);
      break;
    case StmtKind::Loop:
      LoopStack.push_back(&S);
      if (containsBarrier(S.Body)) {
        // Two abstract iterations expose the cross-iteration interval
        // (the region spanning a latch: stores of iteration k share an
        // interval with the first staging phase of iteration k+1).
        for (unsigned IterNo = 0; IterNo < 2; ++IterNo) {
          UnrollStack.emplace_back(&S, IterNo);
          walk(S.Body);
          UnrollStack.pop_back();
        }
      } else {
        walk(S.Body);
      }
      LoopStack.pop_back();
      break;
    case StmtKind::If:
      GuardStack.push_back(&S.Value);
      walk(S.Body);
      GuardStack.pop_back();
      break;
    case StmtKind::Block:
      walk(S.Body);
      break;
    default:
      break;
    }
  }
}

void Prover::emitAccess(const Stmt &S, const Expr &IndexE, unsigned Loc,
                        bool Write) {
  if (Flow.Locations[Loc].Space == LocSpace::SharedArray)
    Touches.push_back({Loc, Interval, Write});
  const std::string &Array = Flow.Locations[Loc].Name;
  AccessInst A;
  A.S = &S;
  A.Array = Array;
  A.Write = Write;
  A.Line = S.Line;
  A.Interval = Interval;
  for (const auto &[Loop, IterNo] : UnrollStack) {
    (void)Loop;
    A.Instance += std::to_string(IterNo);
  }
  for (const DecodeGroup &G : Groups)
    if (!G.Scope || std::find(LoopStack.begin(), LoopStack.end(), G.Scope) !=
                        LoopStack.end())
      A.Groups.push_back(&G);
  std::optional<IndexForm> F = linearizeExpand(IndexE);
  if (!F) {
    finding(RaceFindingKind::NonAffineAccess, Array, S.Line, 0,
            "index expression is not affine: " + renderExpr(IndexE));
    return;
  }
  A.Const = F->Constant;
  for (const IndexTerm &T : F->Terms) {
    Uniformity U = Taint.classOf(T.Coord);
    bool IsPriv = U == Uniformity::ThreadDependent || Taint.privOf(T.Coord);
    if (U == Uniformity::Unknown) {
      if (WarnedUnknown.insert(T.Coord).second)
        finding(RaceFindingKind::UnknownUniformity, Array, S.Line, 0,
                "index atom '" + T.Coord +
                    "' has no classifiable definition");
      IsPriv = true;
    }
    if (IsPriv)
      A.Priv.push_back({T.Coord, T.Coeff, rangeOf(T.Coord)});
    else
      A.Shared[T.Coord + instanceSuffixFor(T.Coord)] += T.Coeff;
  }
  for (const Expr *G : GuardStack)
    addGuard(A, *G);
  Accesses.push_back(std::move(A));
}

void Prover::addGuard(AccessInst &A, const Expr &Cond) {
  if (Cond.Kind == ExprKind::And) {
    for (const Expr &Kid : Cond.Kids)
      addGuard(A, Kid);
    return;
  }
  const Expr *L = nullptr, *R2 = nullptr;
  bool Strict = true;
  switch (Cond.Kind) {
  case ExprKind::Lt:
    L = &Cond.Kids[0];
    R2 = &Cond.Kids[1];
    break;
  case ExprKind::Le:
    L = &Cond.Kids[0];
    R2 = &Cond.Kids[1];
    Strict = false;
    break;
  case ExprKind::Gt:
    L = &Cond.Kids[1];
    R2 = &Cond.Kids[0];
    break;
  case ExprKind::Ge:
    L = &Cond.Kids[1];
    R2 = &Cond.Kids[0];
    Strict = false;
    break;
  default:
    return; // Unhandled conjunct: dropping it only widens the model.
  }
  std::optional<IndexForm> LF = linearizeExpand(*L);
  std::optional<IndexForm> RF = linearizeExpand(*R2);
  if (!LF || !RF)
    return;
  IndexForm Diff = *LF;
  Diff.Constant -= RF->Constant;
  for (const IndexTerm &T : RF->Terms)
    addTermTo(Diff, T.Coord, -T.Coeff);
  GuardLin G;
  G.Const = Diff.Constant;
  G.Strict = Strict;
  for (const IndexTerm &T : Diff.Terms) {
    Uniformity U = Taint.classOf(T.Coord);
    bool IsPriv = U != Uniformity::Uniform || Taint.privOf(T.Coord);
    std::string Name =
        IsPriv ? T.Coord : T.Coord + instanceSuffixFor(T.Coord);
    G.Terms.emplace_back(std::move(Name), T.Coeff);
  }
  A.Guards.push_back(std::move(G));
}

bool Prover::proveInjective(const AccessInst &A) {
  std::vector<const PTerm *> Sorted;
  for (const PTerm &T : A.Priv) {
    if (T.Coeff <= 0 || !T.Range)
      return false;
    Sorted.push_back(&T);
  }
  std::sort(Sorted.begin(), Sorted.end(),
            [](const PTerm *X, const PTerm *Y) { return X->Coeff < Y->Coeff; });
  for (size_t K = 1; K < Sorted.size(); ++K)
    if (Sorted[K]->Coeff < Sorted[K - 1]->Coeff * Sorted[K - 1]->Range->size())
      return false;
  // Same address now implies identical private atoms; the access is
  // race-free iff those atoms determine the thread.
  auto inForm = [&](const std::string &Name) {
    for (const PTerm &T : A.Priv)
      if (T.Name == Name)
        return true;
    return false;
  };
  auto covered = [&](const std::string &Name) {
    if (inForm(Name))
      return true;
    std::optional<ValueRange> VR = rangeOf(Name);
    return VR && VR->Lo == VR->Hi;
  };
  bool DetX = inForm("threadIdx.x") || inForm("get_local_id(0)");
  bool DetY = inForm("threadIdx.y") || inForm("get_local_id(1)");
  bool DetLin = inForm("tid");
  for (const DecodeGroup *Group : A.Groups) {
    const DecodeGroup &G = *Group;
    if (!G.Bijective)
      continue;
    bool All = true;
    for (const std::string &Coord : G.Coords)
      All &= covered(Coord);
    if (!All)
      continue;
    if (G.Src == TidSrc::X)
      DetX = true;
    else if (G.Src == TidSrc::Y)
      DetY = true;
    else
      DetLin = true;
  }
  return DetLin ||
         ((DetX || define("TBX") <= 1) && (DetY || define("TBY") <= 1));
}

PinState Prover::computePins(const AccessInst &A, const Env &Vals) {
  PinState PS;
  auto direct = [&](const char *Name, std::optional<int64_t> PinState::*Slot) {
    auto It = Vals.find(Name);
    if (It != Vals.end())
      PS.pin(PS.*Slot, It->second);
  };
  direct("threadIdx.x", &PinState::X);
  direct("get_local_id(0)", &PinState::X);
  direct("threadIdx.y", &PinState::Y);
  direct("get_local_id(1)", &PinState::Y);
  direct("tid", &PinState::Lin);
  int64_t NT = define("NTHREADS");
  for (const DecodeGroup *Group : A.Groups) {
    const DecodeGroup &G = *Group;
    if (!G.Bijective)
      continue;
    int64_t V = 0, Scale = 1;
    bool All = true;
    for (size_t J = 0; J < G.Coords.size(); ++J) {
      int64_t CV = 0;
      if (auto It = Vals.find(G.Coords[J]); It != Vals.end()) {
        CV = It->second;
      } else {
        std::optional<ValueRange> VR = rangeOf(G.Coords[J]);
        if (!VR || VR->Lo != VR->Hi) {
          All = false;
          break;
        }
        CV = VR->Lo;
      }
      V += CV * Scale;
      Scale *= G.Radix[J];
    }
    if (!All)
      continue;
    if (V >= G.SrcBound) {
      PS.Bad = true; // No thread/iteration produces this combination.
      return PS;
    }
    if (G.Src == TidSrc::X)
      PS.pin(PS.X, V);
    else if (G.Src == TidSrc::Y)
      PS.pin(PS.Y, V);
    else if (NT > 0)
      PS.pin(PS.Lin, V % NT);
  }
  return PS;
}

std::vector<int64_t> Prover::threadsOf(const PinState &PS) const {
  std::vector<int64_t> Out;
  if (PS.Bad)
    return Out;
  int64_t TBX = std::max<int64_t>(1, define("TBX"));
  int64_t TBY = std::max<int64_t>(1, define("TBY"));
  if (PS.Lin) {
    int64_t T = *PS.Lin;
    if (PS.X && *PS.X != T % TBX)
      return Out;
    if (PS.Y && *PS.Y != (T / TBX) % TBY)
      return Out;
    Out.push_back(T);
    return Out;
  }
  int64_t XLo = PS.X ? *PS.X : 0, XHi = PS.X ? *PS.X : TBX - 1;
  int64_t YLo = PS.Y ? *PS.Y : 0, YHi = PS.Y ? *PS.Y : TBY - 1;
  for (int64_t Y = YLo; Y <= YHi; ++Y)
    for (int64_t X = XLo; X <= XHi; ++X)
      Out.push_back(X + TBX * Y);
  return Out;
}

AccessForm Prover::formOf(const AccessInst &X, bool Second) const {
  AccessForm F;
  F.Array = X.Array;
  F.Write = X.Write;
  F.Line = X.Line;
  F.Constant = X.Const;
  for (const auto &[Name, Coeff] : X.Shared)
    F.Terms.push_back({Name, Coeff});
  for (const PTerm &T : X.Priv)
    F.Terms.push_back({Second ? T.Name + "'" : T.Name, T.Coeff});
  return F;
}

void Prover::emitRace(const AccessInst &A, const AccessInst &B,
                      const Env &Sig, const Env &AVals, const Env &BVals,
                      int64_t T1, int64_t T2, int64_t Addr) {
  RaceFindingKind K = (A.Write && B.Write) ? RaceFindingKind::WriteWriteRace
                                           : RaceFindingKind::WriteReadRace;
  const AccessInst &W = A.Write ? A : B;
  const AccessInst &O = A.Write ? B : A;
  auto Key = std::make_tuple(static_cast<int>(K), A.Array,
                             std::min(W.Line, O.Line),
                             std::max(W.Line, O.Line));
  if (!Seen.insert(Key).second)
    return;
  RaceFinding F;
  F.Kind = K;
  F.Array = A.Array;
  F.Line = W.Line;
  F.OtherLine = O.Line;
  F.Message = std::string("two threads can touch the same element (") +
              (K == RaceFindingKind::WriteWriteRace ? "write/write"
                                                    : "write/read") +
              ")";
  F.First = formOf(A, false);
  F.Second = formOf(B, true);
  RaceWitness Wit;
  Wit.Thread1 = T1;
  Wit.Thread2 = T2;
  Wit.Address = Addr;
  std::vector<std::pair<std::string, int64_t>> Rows;
  for (const auto &[N, V] : Sig)
    Rows.emplace_back(N, V);
  std::sort(Rows.begin(), Rows.end());
  for (const auto &[N, V] : Rows)
    Wit.Coords.push_back({N, V, V});
  auto pushSide = [&](const Env &Vals, bool Prime) {
    std::vector<std::pair<std::string, int64_t>> SideRows(Vals.begin(),
                                                          Vals.end());
    std::sort(SideRows.begin(), SideRows.end());
    for (const auto &[N, V] : SideRows)
      if (!Sig.count(N))
        Wit.Coords.push_back({Prime ? N + "'" : N, V, V});
  };
  pushSide(AVals, false);
  pushSide(BVals, true);
  F.Witness = std::move(Wit);
  R.Findings.push_back(std::move(F));
  ++NumRaceFindings;
}

void Prover::unproven(const AccessInst &A, const AccessInst &B,
                      std::string Why) {
  finding(RaceFindingKind::UnprovenAccess, A.Array, A.Line, B.Line,
          "solver gave up: " + std::move(Why));
}

void Prover::enumeratePair(const AccessInst &A, const AccessInst &B,
                           const std::map<std::string, int64_t> &SharedDiff) {
  struct Dim {
    std::string Name;
    int64_t Lo = 0, Hi = 0, Cur = 0;
  };
  std::set<std::string> Sigma;
  for (const auto &[N, C] : SharedDiff) {
    (void)C;
    Sigma.insert(N);
  }
  std::vector<Dim> SigD, AD, BD;
  for (const std::string &N : Sigma) {
    std::optional<ValueRange> VR = rangeOf(N);
    if (!VR)
      return unproven(A, B, "unknown range for shared atom '" + N + "'");
    SigD.push_back({N, VR->Lo, VR->Hi, VR->Lo});
  }
  auto privDims = [&](const AccessInst &X, std::vector<Dim> &Out) {
    for (const PTerm &T : X.Priv) {
      if (!T.Range)
        return false;
      Out.push_back({T.Name, T.Range->Lo, T.Range->Hi, T.Range->Lo});
    }
    return true;
  };
  if (!privDims(A, AD) || !privDims(B, BD))
    return unproven(A, B, "unknown range for a private atom");
  long double Cost = 1.0L, PA = 1.0L, PB = 1.0L;
  for (const Dim &D : SigD)
    Cost *= static_cast<long double>(D.Hi - D.Lo + 1);
  for (const Dim &D : AD)
    PA *= static_cast<long double>(D.Hi - D.Lo + 1);
  for (const Dim &D : BD)
    PB *= static_cast<long double>(D.Hi - D.Lo + 1);
  Cost *= PA + PB;
  if (Cost > static_cast<long double>(EnumerationCap))
    return unproven(A, B, "enumeration cost exceeds cap");
  // Guard atoms are best-effort dimensions: pinning them lets guardsHold
  // prune infeasible points, but omitting one only *enlarges* the searched
  // superset (its conjuncts become unevaluable and are skipped), so the
  // check stays sound. Admit them cheapest-range-first while the total
  // enumeration cost stays under the cap.
  {
    std::map<std::string, ValueRange> Cands;
    auto guardAtoms = [&](const AccessInst &X) {
      for (const GuardLin &G : X.Guards)
        for (const auto &[N, C] : G.Terms) {
          (void)C;
          bool IsPriv = false;
          for (const PTerm &T : X.Priv)
            IsPriv |= T.Name == N;
          if (IsPriv || Sigma.count(N))
            continue;
          if (std::optional<ValueRange> VR = rangeOf(N))
            Cands.emplace(N, *VR);
        }
    };
    guardAtoms(A);
    guardAtoms(B);
    std::vector<std::pair<std::string, ValueRange>> Order(Cands.begin(),
                                                          Cands.end());
    std::stable_sort(Order.begin(), Order.end(),
                     [](const auto &L, const auto &R) {
                       return L.second.size() < R.second.size();
                     });
    for (const auto &[N, VR] : Order) {
      long double Grown = Cost * static_cast<long double>(VR.size());
      if (Grown > static_cast<long double>(EnumerationCap))
        break;
      Cost = Grown;
      Sigma.insert(N);
      SigD.push_back({N, VR.Lo, VR.Hi, VR.Lo});
    }
  }
  uint64_t Budget = EnumerationCap;
  auto reset = [](std::vector<Dim> &Ds) {
    for (Dim &D : Ds)
      D.Cur = D.Lo;
  };
  auto advance = [](std::vector<Dim> &Ds) {
    for (Dim &D : Ds) {
      if (++D.Cur <= D.Hi)
        return true;
      D.Cur = D.Lo;
    }
    return false;
  };
  auto guardsHold = [](const AccessInst &X, const Env &Vals) {
    for (const GuardLin &G : X.Guards) {
      int64_t S = G.Const;
      bool All = true;
      for (const auto &[N, C] : G.Terms) {
        auto It = Vals.find(N);
        if (It == Vals.end()) {
          All = false;
          break;
        }
        S += C * It->second;
      }
      if (!All)
        continue; // Unevaluable conjunct: keep the superset.
      if (G.Strict ? !(S < 0) : !(S <= 0))
        return false;
    }
    return true;
  };
  auto addrOf = [&](const AccessInst &X, const Env &Vals) {
    // Shared atoms outside Sigma cancel between the two sides and are
    // consistently omitted from both pseudo-addresses.
    int64_t V = X.Const;
    for (const auto &[N, C] : X.Shared)
      if (auto It = Vals.find(N); It != Vals.end())
        V += C * It->second;
    for (const PTerm &T : X.Priv)
      V += T.Coeff * Vals.at(T.Name);
    return V;
  };
  reset(SigD);
  do {
    Env Sig;
    for (const Dim &D : SigD)
      Sig[D.Name] = D.Cur;
    struct Entry {
      Env Vals;
      PinState Pins;
      int64_t Addr;
    };
    std::unordered_map<int64_t, std::vector<Entry>> Table;
    reset(AD);
    do {
      if (Budget-- == 0)
        return unproven(A, B, "enumeration budget exhausted");
      Env Vals = Sig;
      for (const Dim &D : AD)
        Vals[D.Name] = D.Cur;
      if (!guardsHold(A, Vals))
        continue;
      PinState PS = computePins(A, Vals);
      if (PS.Bad)
        continue;
      int64_t Addr = addrOf(A, Vals);
      Env PrivOnly;
      for (const Dim &D : AD)
        PrivOnly[D.Name] = D.Cur;
      Table[Addr].push_back({std::move(PrivOnly), PS, Addr});
    } while (advance(AD));
    reset(BD);
    do {
      if (Budget-- == 0)
        return unproven(A, B, "enumeration budget exhausted");
      Env Vals = Sig;
      for (const Dim &D : BD)
        Vals[D.Name] = D.Cur;
      if (!guardsHold(B, Vals))
        continue;
      PinState PS = computePins(B, Vals);
      if (PS.Bad)
        continue;
      int64_t Addr = addrOf(B, Vals);
      auto It = Table.find(Addr);
      if (It == Table.end())
        continue;
      std::vector<int64_t> S2 = threadsOf(PS);
      if (S2.empty())
        continue;
      for (const Entry &E : It->second) {
        std::vector<int64_t> S1 = threadsOf(E.Pins);
        if (S1.empty())
          continue;
        if (Budget < S1.size() * S2.size())
          return unproven(A, B, "enumeration budget exhausted");
        Budget -= S1.size() * S2.size();
        std::optional<std::pair<int64_t, int64_t>> P = pickPair(S1, S2);
        if (!P)
          continue;
        Env BPriv;
        for (const Dim &D : BD)
          BPriv[D.Name] = D.Cur;
        emitRace(A, B, Sig, E.Vals, BPriv, P->first, P->second, Addr);
        return;
      }
    } while (advance(BD));
  } while (advance(SigD));
  ++R.ProvedByEnumeration;
}

void Prover::solvePair(const AccessInst &A, const AccessInst &B, bool Self) {
  ++R.PairsChecked;
  ++NumRacePairs;
  std::map<std::string, int64_t> SD = A.Shared;
  for (const auto &[N, C] : B.Shared)
    SD[N] -= C;
  for (auto It = SD.begin(); It != SD.end();)
    It = It->second == 0 ? SD.erase(It) : std::next(It);
  int64_t CD = A.Const - B.Const;
  // 1. Interval disjointness of the address difference.
  bool RangesOK = true;
  int64_t Lo = CD, Hi = CD;
  auto accumulate = [&](int64_t Coeff, std::optional<ValueRange> VR) {
    if (!VR) {
      RangesOK = false;
      return;
    }
    if (Coeff >= 0) {
      Lo += Coeff * VR->Lo;
      Hi += Coeff * VR->Hi;
    } else {
      Lo += Coeff * VR->Hi;
      Hi += Coeff * VR->Lo;
    }
  };
  for (const auto &[N, C] : SD)
    accumulate(C, rangeOf(N));
  for (const PTerm &T : A.Priv)
    accumulate(T.Coeff, T.Range);
  for (const PTerm &T : B.Priv)
    accumulate(-T.Coeff, T.Range);
  if (RangesOK && (Lo > 0 || Hi < 0)) {
    ++R.ProvedByInterval;
    return;
  }
  // 2. GCD refutation on the coefficient lattice.
  int64_t G = 0;
  for (const auto &[N, C] : SD) {
    (void)N;
    G = std::gcd(G, std::abs(C));
  }
  for (const PTerm &T : A.Priv)
    G = std::gcd(G, std::abs(T.Coeff));
  for (const PTerm &T : B.Priv)
    G = std::gcd(G, std::abs(T.Coeff));
  if (G > 0 && CD % G != 0) {
    ++R.ProvedByGcd;
    return;
  }
  // 3. Mixed-radix injectivity for a self pair: same address implies the
  // same private atoms, which (via a bijective thread decode) implies the
  // same thread.
  if (Self && proveInjective(A)) {
    ++R.ProvedByInjectivity;
    return;
  }
  // 4. Bounded concrete enumeration.
  enumeratePair(A, B, SD);
}

void Prover::judgeBarriers() {
  const unsigned NI = Interval + 1;
  const size_t NL = Flow.Locations.size();
  // Per location and interval: bit 0 read, bit 1 written.
  std::vector<uint8_t> Mask(NL * NI, 0);
  for (const SmemTouch &T : Touches)
    Mask[T.Loc * NI + T.Interval] |= T.Write ? 2 : 1;

  // Merging intervals [Lo, Hi] adds a pair iff some buffer is touched in
  // two of them and written in at least one.
  auto mergeAddsPair = [&](unsigned Lo, unsigned Hi) {
    for (size_t L = 0; L < NL; ++L) {
      unsigned Touched = 0;
      bool Written = false;
      for (unsigned I = Lo; I <= Hi; ++I) {
        Touched += Mask[L * NI + I] != 0;
        Written |= (Mask[L * NI + I] & 2) != 0;
      }
      if (Touched > 1 && Written)
        return true;
    }
    return false;
  };
  for (unsigned Line :
       std::set<unsigned>(BarrierLines.begin(), BarrierLines.end())) {
    bool Redundant = true;
    for (unsigned Lo = 0; Lo < NI && Redundant;) {
      unsigned Hi = Lo;
      while (Hi + 1 < NI && BarrierLines[Hi] == Line)
        ++Hi;
      Redundant = Hi == Lo || !mergeAddsPair(Lo, Hi);
      Lo = Hi + 1;
    }
    R.Barriers.push_back({Line, Redundant});
    NumRedundantBarriers += Redundant;
  }

  // Staging overlap over the buffers the CFG saw both written and read.
  std::vector<unsigned> Used;
  for (const SmemBufferLifetime &B : Flow.SmemLifetimes)
    if (B.Written && B.Read)
      Used.push_back(B.Loc);
  auto firstWrite = [&](unsigned L) {
    unsigned I = 0;
    while (I < NI && !(Mask[L * NI + I] & 2))
      ++I;
    return static_cast<int64_t>(I);
  };
  auto lastRead = [&](unsigned L) {
    int64_t I = NI - 1;
    while (I >= 0 && !(Mask[L * NI + I] & 1))
      --I;
    return I;
  };
  for (size_t A = 0; A < Used.size(); ++A)
    for (size_t B = A + 1; B < Used.size(); ++B)
      if (lastRead(Used[A]) < firstWrite(Used[B]) ||
          lastRead(Used[B]) < firstWrite(Used[A]))
        R.DisjointSmemStaging = true;
}

RaceReport Prover::run() {
  Taint = runTaint(M, Flow);
  R.Uniform = uniformityOf(Taint, Flow);
  checkSchemaRoles();
  divergenceWalk(M.Body, Uniformity::Uniform, std::string());
  std::vector<const Stmt *> LoopStack;
  indexBarrierLoops(M.Body, LoopStack, BarrierLoopsOf);
  Defs = censusDefs(M);
  Ambient = buildAmbient(M, Plan.contraction(), Defs);
  Ranges = std::make_unique<RangeAnalysis>(M, Ambient, Defs);
  findGroups(M.Body, Defs, Ambient, Groups);
  walk(M.Body);
  judgeBarriers();
  R.Intervals = Interval + 1;
  R.AccessesChecked = static_cast<unsigned>(Accesses.size());
  std::map<std::pair<std::string, unsigned>, std::vector<size_t>> Buckets;
  for (size_t I = 0; I < Accesses.size(); ++I)
    Buckets[{Accesses[I].Array, Accesses[I].Interval}].push_back(I);
  for (const auto &[Key, Idx] : Buckets) {
    (void)Key;
    for (size_t I = 0; I < Idx.size(); ++I)
      for (size_t J = I; J < Idx.size(); ++J) {
        const AccessInst &A = Accesses[Idx[I]];
        const AccessInst &B = Accesses[Idx[J]];
        if (!A.Write && !B.Write)
          continue;
        bool Self = I == J;
        if (Self && !A.Write)
          continue;
        solvePair(A, B, Self);
      }
  }
  return R;
}

} // namespace

//===----------------------------------------------------------------------===//
// Public rendering / replay / entry points
//===----------------------------------------------------------------------===//

std::string RaceWitness::render() const {
  std::ostringstream OS;
  OS << "threads (" << Thread1 << "," << Thread2 << ") address " << Address;
  if (!Coords.empty()) {
    OS << " via";
    for (const WitnessCoord &C : Coords) {
      bool Prime = !C.Coord.empty() && C.Coord.back() == '\'';
      OS << ' ' << C.Coord << '=' << (Prime ? C.Second : C.First);
    }
  }
  return OS.str();
}

int64_t AccessForm::eval(const std::vector<WitnessCoord> &Coords,
                         bool Second) const {
  int64_t V = Constant;
  for (const IndexTerm &T : Terms)
    for (const WitnessCoord &C : Coords)
      if (C.Coord == T.Coord) {
        V += T.Coeff * (Second ? C.Second : C.First);
        break;
      }
  return V;
}

std::string RaceFinding::render() const {
  std::ostringstream OS;
  OS << raceFindingKindName(Kind) << ": ";
  if (!Array.empty())
    OS << Array << ' ';
  if (Line != 0) {
    OS << "line " << Line;
    if (OtherLine != 0)
      OS << " vs " << OtherLine;
    OS << ": ";
  }
  OS << Message;
  if (Witness)
    OS << " [" << Witness->render() << "]";
  return OS.str();
}

bool replayWitness(const RaceFinding &F) {
  if (!F.Witness)
    return false;
  if (F.Witness->Thread1 == F.Witness->Thread2)
    return false;
  return F.First.eval(F.Witness->Coords, false) ==
         F.Second.eval(F.Witness->Coords, true);
}

RaceReport proveRaces(const KernelPlan &Plan, const KernelModel &M,
                      const DataflowInfo &Flow) {
  Prover P(Plan, M, Flow);
  return P.run();
}

std::string explainRaces(const KernelPlan &Plan,
                         const std::string &KernelSource) {
  ErrorOr<KernelModel> Model = parseKernelSource(KernelSource);
  if (!Model)
    return "explain-races: kernel failed to parse: " + Model.errorMessage() +
           "\n";
  ErrorOr<DataflowInfo> Flow = buildDataflow(*Model);
  if (!Flow)
    return "explain-races: dataflow failed: " + Flow.errorMessage() + "\n";
  RaceReport R = proveRaces(Plan, *Model, *Flow);
  std::ostringstream OS;
  OS << "=== race prover: uniformity ===\n";
  for (size_t I = 0; I < Flow->Locations.size(); ++I) {
    const Location &L = Flow->Locations[I];
    if (L.Implicit)
      continue;
    OS << "  " << L.Name << ": " << uniformityName(R.Uniform.Classes[I]);
    if (R.Uniform.IterationPrivate[I])
      OS << " (iteration-private)";
    OS << "\n";
  }
  OS << "=== race prover: solver ===\n";
  OS << "  barrier intervals: " << R.Intervals
     << "  accesses: " << R.AccessesChecked
     << "  pairs: " << R.PairsChecked << "\n";
  OS << "  proved by: interval " << R.ProvedByInterval << ", gcd "
     << R.ProvedByGcd << ", injectivity " << R.ProvedByInjectivity
     << ", enumeration " << R.ProvedByEnumeration << "\n";
  OS << "=== race prover: barriers ===\n";
  if (R.Barriers.empty())
    OS << "  (none)\n";
  for (const BarrierVerdict &B : R.Barriers)
    OS << "  line " << B.Line << ": "
       << (B.Redundant ? "redundant" : "required") << "\n";
  if (R.DisjointSmemStaging)
    OS << "  note: staging buffers have disjoint barrier intervals "
          "(storage could be shared)\n";
  OS << "=== race prover: findings ===\n";
  if (R.Findings.empty())
    OS << "  none - race and divergence clean\n";
  for (const RaceFinding &F : R.Findings)
    OS << "  " << F.render() << "\n";
  return OS.str();
}

} // namespace analysis
} // namespace cogent

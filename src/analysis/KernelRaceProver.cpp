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
//   4. Range analysis over atoms (decode coordinates, loop variables,
//      tile bases) via def-site recursion.
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
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

namespace cogent {
namespace analysis {

using core::KernelPlan;

COGENT_COUNTER(NumRaceFindings, "race.findings",
               "Typed findings emitted by the race prover");
COGENT_COUNTER(NumRacePairs, "race.pairs-checked",
               "Same-array same-interval access pairs solved");

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

bool isScalarStmt(const Stmt &S) {
  return S.Kind == StmtKind::Decl || S.Kind == StmtKind::Assign ||
         S.Kind == StmtKind::CompoundMul || S.Kind == StmtKind::CompoundDiv;
}

bool execScalar(const Stmt &S, Env &E) {
  std::optional<int64_t> V = evalExpr(S.Value, E);
  if (!V)
    return false;
  switch (S.Kind) {
  case StmtKind::Decl:
  case StmtKind::Assign:
    E[S.Name] = *V;
    return true;
  case StmtKind::CompoundMul: {
    auto It = E.find(S.Name);
    if (It == E.end())
      return false;
    It->second *= *V;
    return true;
  }
  case StmtKind::CompoundDiv: {
    auto It = E.find(S.Name);
    if (It == E.end() || *V == 0)
      return false;
    It->second /= *V;
    return true;
  }
  default:
    return false;
  }
}

void forEachStmt(const std::vector<Stmt> &Body,
                 const std::function<void(const Stmt &)> &Fn) {
  for (const Stmt &S : Body) {
    Fn(S);
    if (!S.Body.empty())
      forEachStmt(S.Body, Fn);
  }
}

void forEachIndexExpr(const Expr &E,
                      const std::function<void(const Expr &)> &Fn) {
  if (E.Kind == ExprKind::Index)
    Fn(E);
  for (const Expr &Kid : E.Kids)
    forEachIndexExpr(Kid, Fn);
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

} // namespace

Uniformity UniformityInfo::classOf(const DataflowInfo &Flow,
                                   const std::string &Name) const {
  std::optional<unsigned> Loc = Flow.location(Name);
  if (!Loc || *Loc >= Classes.size())
    return Uniformity::Unknown;
  return Classes[*Loc];
}

UniformityInfo analyzeUniformity(const KernelModel &M,
                                 const DataflowInfo &Flow) {
  TaintResult T = runTaint(M, Flow);
  UniformityInfo Info;
  Info.Classes.reserve(Flow.Locations.size());
  Info.IterationPrivate.reserve(Flow.Locations.size());
  for (const Location &L : Flow.Locations) {
    Info.Classes.push_back(T.classOf(L.Name));
    Info.IterationPrivate.push_back(T.privOf(L.Name));
  }
  return Info;
}

namespace {

//===----------------------------------------------------------------------===//
// Ambient, definition index, ranges
//===----------------------------------------------------------------------===//

/// Defs/compound-def census plus, per first-defined name, the stack of
/// barrier-carrying loops lexically enclosing that definition (instance
/// suffixes are derived from it during the unrolled walk).
struct DefIndex {
  std::unordered_map<std::string, std::vector<const Stmt *>> Defs;
  std::unordered_map<std::string, unsigned> CompoundDefs;
  std::unordered_map<std::string, std::vector<const Stmt *>> BarrierLoopsOf;

  const Stmt *singleDef(const std::string &Name) const {
    auto It = Defs.find(Name);
    if (It == Defs.end() || It->second.size() != 1)
      return nullptr;
    auto CIt = CompoundDefs.find(Name);
    if (CIt != CompoundDefs.end() && CIt->second > 0)
      return nullptr;
    return It->second.front();
  }
};

void indexDefs(const std::vector<Stmt> &Body,
               std::vector<const Stmt *> &BarrierLoops, DefIndex &D) {
  for (const Stmt &S : Body) {
    switch (S.Kind) {
    case StmtKind::Decl:
    case StmtKind::Assign:
      D.Defs[S.Name].push_back(&S);
      D.BarrierLoopsOf.emplace(S.Name, BarrierLoops);
      break;
    case StmtKind::CompoundMul:
    case StmtKind::CompoundDiv:
      ++D.CompoundDefs[S.Name];
      break;
    case StmtKind::Loop: {
      // The loop variable of a barrier-carrying loop takes a different
      // value in each unrolled instance, so its suffix chain includes the
      // loop itself.
      bool Barr = containsBarrier(S.Body);
      if (Barr)
        BarrierLoops.push_back(&S);
      D.BarrierLoopsOf.emplace(S.LoopVar, BarrierLoops);
      indexDefs(S.Body, BarrierLoops, D);
      if (Barr)
        BarrierLoops.pop_back();
      break;
    }
    case StmtKind::If:
    case StmtKind::Block:
      indexDefs(S.Body, BarrierLoops, D);
      break;
    default:
      break;
    }
  }
}

/// Ambient restricted to single-assignment scalars: the lint ambient folds
/// every statement in program order, which would turn loop-carried values
/// (the double-buffer parity, linear cursors) into whichever constant the
/// last fold produced and silently corrupt both sides of a pair.
Env buildProverAmbient(const KernelPlan &Plan, const KernelModel &M,
                       const DefIndex &DI) {
  Env E;
  for (const auto &[Name, Value] : M.Defines)
    E[Name] = Value;
  for (char Name : Plan.contraction().allIndices())
    E[std::string("N_") + Name] = Plan.contraction().extent(Name);
  forEachStmt(M.Body, [&](const Stmt &S) {
    if (!isScalarStmt(S))
      return;
    auto It = DI.Defs.find(S.Name);
    bool Single = It != DI.Defs.end() && It->second.size() == 1;
    auto CIt = DI.CompoundDefs.find(S.Name);
    if (CIt != DI.CompoundDefs.end() && CIt->second > 0)
      Single = false;
    if (Single)
      execScalar(S, E);
  });
  return E;
}

struct ValueRange {
  int64_t Lo = 0, Hi = 0;
  int64_t size() const { return Hi - Lo + 1; }
};

struct RangeCtx {
  const KernelModel &M;
  const Env &Ambient;
  const DefIndex &DI;
  std::unordered_map<std::string, std::optional<ValueRange>> Memo;
  std::unordered_set<std::string> InFlight;
};

std::optional<ValueRange> rangeOfName(RangeCtx &C, const std::string &Raw);

std::optional<ValueRange> rangeOfExpr(RangeCtx &C, const Expr &E) {
  if (std::optional<int64_t> V = evalExpr(E, C.Ambient))
    return ValueRange{*V, *V};
  switch (E.Kind) {
  case ExprKind::Var:
    return rangeOfName(C, E.Name);
  case ExprKind::Add: {
    auto L = rangeOfExpr(C, E.Kids[0]);
    auto R = rangeOfExpr(C, E.Kids[1]);
    if (!L || !R)
      return std::nullopt;
    return ValueRange{L->Lo + R->Lo, L->Hi + R->Hi};
  }
  case ExprKind::Sub: {
    auto L = rangeOfExpr(C, E.Kids[0]);
    auto R = rangeOfExpr(C, E.Kids[1]);
    if (!L || !R)
      return std::nullopt;
    return ValueRange{L->Lo - R->Hi, L->Hi - R->Lo};
  }
  case ExprKind::Mul: {
    std::optional<int64_t> K = evalExpr(E.Kids[0], C.Ambient);
    const Expr *Other = &E.Kids[1];
    if (!K) {
      K = evalExpr(E.Kids[1], C.Ambient);
      Other = &E.Kids[0];
    }
    if (!K)
      return std::nullopt;
    auto R = rangeOfExpr(C, *Other);
    if (!R)
      return std::nullopt;
    if (*K >= 0)
      return ValueRange{R->Lo * *K, R->Hi * *K};
    return ValueRange{R->Hi * *K, R->Lo * *K};
  }
  case ExprKind::Mod: {
    std::optional<int64_t> K = evalExpr(E.Kids[1], C.Ambient);
    if (!K || *K <= 0)
      return std::nullopt;
    return ValueRange{0, *K - 1};
  }
  case ExprKind::Div: {
    std::optional<int64_t> K = evalExpr(E.Kids[1], C.Ambient);
    if (!K || *K <= 0)
      return std::nullopt;
    auto L = rangeOfExpr(C, E.Kids[0]);
    if (!L || L->Lo < 0)
      return std::nullopt;
    return ValueRange{L->Lo / *K, L->Hi / *K};
  }
  case ExprKind::Ternary: {
    auto A = rangeOfExpr(C, E.Kids[1]);
    auto B = rangeOfExpr(C, E.Kids[2]);
    if (!A || !B)
      return std::nullopt;
    return ValueRange{std::min(A->Lo, B->Lo), std::max(A->Hi, B->Hi)};
  }
  default:
    return std::nullopt;
  }
}

std::optional<ValueRange> rangeOfName(RangeCtx &C, const std::string &Raw) {
  std::string Name = canonicalAtom(Raw);
  if (auto It = C.Ambient.find(Name); It != C.Ambient.end())
    return ValueRange{It->second, It->second};
  auto defineRange = [&](const char *Dim) -> std::optional<ValueRange> {
    auto It = C.Ambient.find(Dim);
    if (It == C.Ambient.end())
      return std::nullopt;
    return ValueRange{0, It->second - 1};
  };
  if (Name == "threadIdx.x" || Name == "get_local_id(0)")
    return defineRange("TBX");
  if (Name == "threadIdx.y" || Name == "get_local_id(1)")
    return defineRange("TBY");
  if (Name == "threadIdx.z" || Name == "get_local_id(2)")
    return ValueRange{0, 0};
  if (C.M.DoubleBuffer && Name == "buf")
    return ValueRange{0, 1};
  if (auto It = C.Memo.find(Name); It != C.Memo.end())
    return It->second;
  if (!C.InFlight.insert(Name).second)
    return std::nullopt;
  std::optional<ValueRange> Result;
  if (const Stmt *L = KernelModel::findLoop(C.M.Body, Name)) {
    auto Init = rangeOfExpr(C, L->LoopInit);
    auto Bound = rangeOfExpr(C, L->LoopBound);
    if (Init && Bound && Init->Lo <= Bound->Hi - 1)
      Result = ValueRange{Init->Lo, Bound->Hi - 1};
  } else if (auto It = C.DI.Defs.find(Name); It != C.DI.Defs.end()) {
    // Join over every definition's RHS range; compound updates defeat the
    // bound (the value drifts), so any compound def voids the result.
    auto CIt = C.DI.CompoundDefs.find(Name);
    if (CIt == C.DI.CompoundDefs.end() || CIt->second == 0) {
      for (const Stmt *D : It->second) {
        auto R = rangeOfExpr(C, D->Value);
        if (!R) {
          Result = std::nullopt;
          break;
        }
        if (!Result)
          Result = R;
        else
          Result = ValueRange{std::min(Result->Lo, R->Lo),
                              std::max(Result->Hi, R->Hi)};
      }
    }
  }
  C.InFlight.erase(Name);
  C.Memo[Name] = Result;
  return Result;
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
};

void findGroups(const std::vector<Stmt> &Body, const KernelModel &M,
                const Env &Ambient, std::vector<DecodeGroup> &Out,
                const Stmt *EnclosingLoop = nullptr) {
  auto define = [&](const char *Name) -> int64_t {
    auto It = Ambient.find(Name);
    return It == Ambient.end() ? 0 : It->second;
  };
  for (size_t I = 0; I < Body.size(); ++I) {
    const Stmt &S = Body[I];
    if (!S.Body.empty())
      findGroups(S.Body, M, Ambient, Out,
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
                                   : KernelModel::findLoop(M.Body, SrcName)) {
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
         const DataflowInfo &Flow, const RaceProverOptions &Opts)
      : Plan(Plan), M(M), Flow(Flow), Opts(Opts) {}

  RaceReport run();

private:
  const KernelPlan &Plan;
  const KernelModel &M;
  const DataflowInfo &Flow;
  const RaceProverOptions &Opts;

  RaceReport R;
  TaintResult Taint;
  DefIndex DI;
  Env Ambient;
  std::unique_ptr<RangeCtx> RC;
  std::vector<DecodeGroup> Groups;

  // Collection state.
  std::vector<AccessInst> Accesses;
  unsigned Interval = 0;
  std::vector<const Expr *> GuardStack;
  std::vector<std::pair<const Stmt *, unsigned>> UnrollStack;

  std::set<std::tuple<int, std::string, unsigned, unsigned>> Seen;
  std::set<std::string> WarnedUnknown;

  int64_t define(const char *Name) const {
    auto It = M.Defines.find(Name);
    return It == M.Defines.end() ? 1 : It->second;
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
  void emitAccess(const Stmt &S, const Expr &IndexE,
                  const std::string &Array, bool Write);
  void addGuard(AccessInst &A, const Expr &Cond);

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
      const Stmt *D = DI.singleDef(T.Coord);
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
  auto It = DI.BarrierLoopsOf.find(canonicalAtom(Name));
  if (It == DI.BarrierLoopsOf.end())
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
    emitAccess(S, Ref.Kids[0], Ref.Name, /*Write=*/false);
  });
}

void Prover::walk(const std::vector<Stmt> &Body) {
  for (const Stmt &S : Body) {
    switch (S.Kind) {
    case StmtKind::Barrier:
      ++Interval;
      break;
    case StmtKind::ArrayStore: {
      if (std::optional<unsigned> Loc = Flow.location(S.Name)) {
        LocSpace Space = Flow.Locations[*Loc].Space;
        if (Space == LocSpace::SharedArray || Space == LocSpace::GlobalArray)
          emitAccess(S, S.Index, S.Name, /*Write=*/true);
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

void Prover::emitAccess(const Stmt &S, const Expr &IndexE,
                        const std::string &Array, bool Write) {
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
      A.Priv.push_back({T.Coord, T.Coeff, rangeOfName(*RC, T.Coord)});
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
    std::optional<ValueRange> VR = rangeOfName(*RC, Name);
    return VR && VR->Lo == VR->Hi;
  };
  bool DetX = inForm("threadIdx.x") || inForm("get_local_id(0)");
  bool DetY = inForm("threadIdx.y") || inForm("get_local_id(1)");
  bool DetLin = inForm("tid");
  for (const DecodeGroup &G : Groups) {
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
  (void)A;
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
  for (const DecodeGroup &G : Groups) {
    if (!G.Bijective)
      continue;
    int64_t V = 0, Scale = 1;
    bool All = true;
    for (size_t J = 0; J < G.Coords.size(); ++J) {
      int64_t CV = 0;
      if (auto It = Vals.find(G.Coords[J]); It != Vals.end()) {
        CV = It->second;
      } else {
        std::optional<ValueRange> VR = rangeOfName(*RC, G.Coords[J]);
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
    std::optional<ValueRange> VR = rangeOfName(*RC, N);
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
  if (Cost > static_cast<long double>(Opts.EnumerationCap))
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
          if (std::optional<ValueRange> VR = rangeOfName(*RC, N))
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
      if (Grown > static_cast<long double>(Opts.EnumerationCap))
        break;
      Cost = Grown;
      Sigma.insert(N);
      SigD.push_back({N, VR.Lo, VR.Hi, VR.Lo});
    }
  }
  uint64_t Budget = Opts.EnumerationCap;
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
    accumulate(C, rangeOfName(*RC, N));
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

RaceReport Prover::run() {
  Taint = runTaint(M, Flow);
  R.Uniform.Classes.reserve(Flow.Locations.size());
  R.Uniform.IterationPrivate.reserve(Flow.Locations.size());
  for (const Location &L : Flow.Locations) {
    R.Uniform.Classes.push_back(Taint.classOf(L.Name));
    R.Uniform.IterationPrivate.push_back(Taint.privOf(L.Name));
  }
  checkSchemaRoles();
  divergenceWalk(M.Body, Uniformity::Uniform, std::string());
  std::vector<const Stmt *> LoopStack;
  indexDefs(M.Body, LoopStack, DI);
  Ambient = buildProverAmbient(Plan, M, DI);
  RC = std::make_unique<RangeCtx>(RangeCtx{M, Ambient, DI, {}, {}});
  findGroups(M.Body, M, Ambient, Groups);
  walk(M.Body);
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
                      const DataflowInfo &Flow,
                      const RaceProverOptions &Opts) {
  Prover P(Plan, M, Flow, Opts);
  return P.run();
}

std::string explainRaces(const KernelPlan &Plan,
                         const std::string &KernelSource,
                         const RaceProverOptions &Opts) {
  ErrorOr<KernelModel> Model = parseKernelSource(KernelSource);
  if (!Model)
    return "explain-races: kernel failed to parse: " + Model.errorMessage() +
           "\n";
  ErrorOr<DataflowInfo> Flow = buildDataflow(*Model);
  if (!Flow)
    return "explain-races: dataflow failed: " + Flow.errorMessage() + "\n";
  RaceReport R = proveRaces(Plan, *Model, *Flow, Opts);
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
  OS << "=== race prover: findings ===\n";
  if (R.Findings.empty())
    OS << "  none - race and divergence clean\n";
  for (const RaceFinding &F : R.Findings)
    OS << "  " << F.render() << "\n";
  return OS.str();
}

} // namespace analysis
} // namespace cogent

//===- analysis/KernelDataflow.cpp - CFG + liveness over emitted kernels --===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelDataflow.h"

#include "support/Counters.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

using namespace cogent;
using namespace cogent::analysis;

namespace {

COGENT_COUNTER(NumDataflowBuilds, "dataflow.kernels-analyzed",
               "Kernel models run through the dataflow solvers");
COGENT_COUNTER(NumDeadDefsFound, "dataflow.dead-stores",
               "Dead definitions detected across all dataflow runs");

/// Thread/block builtins of both dialects: implicitly defined at entry.
constexpr const char *Builtins[] = {
    "threadIdx.x",      "threadIdx.y",      "threadIdx.z",
    "blockIdx.x",       "blockIdx.y",       "blockIdx.z",
    "blockDim.x",       "blockDim.y",       "blockDim.z",
    "gridDim.x",        "gridDim.y",        "gridDim.z",
    "get_local_id(0)",  "get_local_id(1)",  "get_local_id(2)",
    "get_group_id(0)",  "get_group_id(1)",  "get_group_id(2)",
    "get_local_size(0)", "get_local_size(1)", "get_local_size(2)",
    "get_num_groups(0)", "get_num_groups(1)", "get_num_groups(2)",
    "get_global_id(0)", "get_global_id(1)", "get_global_id(2)",
};

/// 32-bit registers one value of declared type \p Type occupies.
unsigned widthOfType(const std::string &Type) {
  if (Type.find("long") != std::string::npos ||
      Type.find("double") != std::string::npos)
    return 2;
  return 1; // int / unsigned / bool / float
}

//===----------------------------------------------------------------------===//
// CFG construction
//===----------------------------------------------------------------------===//

struct CfgBuilder {
  const KernelModel &M;
  DataflowInfo &Info;
  std::unordered_map<std::string, unsigned> LocIndex;
  Env DefineEnv;
  unsigned Cur = 0;

  CfgBuilder(const KernelModel &Model, DataflowInfo &Out)
      : M(Model), Info(Out) {
    for (const auto &[Name, Value] : M.Defines)
      DefineEnv[Name] = Value;
  }

  unsigned newBlock(std::string Label) {
    Info.Blocks.emplace_back();
    Info.Blocks.back().Label = std::move(Label);
    return static_cast<unsigned>(Info.Blocks.size() - 1);
  }

  void edge(unsigned From, unsigned To) {
    Info.Blocks[From].Succs.push_back(To);
    Info.Blocks[To].Preds.push_back(From);
  }

  unsigned makeLoc(const std::string &Name, LocSpace Space, unsigned Width,
                   int64_t Elements, bool Implicit) {
    auto It = LocIndex.find(Name);
    if (It != LocIndex.end())
      return It->second;
    unsigned Id = static_cast<unsigned>(Info.Locations.size());
    Info.Locations.push_back({Name, Space, Width, Elements, Implicit});
    LocIndex.emplace(Name, Id);
    return Id;
  }

  unsigned scalarLoc(const std::string &Name) {
    return makeLoc(Name, LocSpace::Scalar, 1, 1, false);
  }

  /// The location for an array base name: declared shared/register arrays
  /// keep their space; anything else is a global pointer parameter.
  unsigned arrayLoc(const std::string &Name) {
    auto It = LocIndex.find(Name);
    if (It != LocIndex.end())
      return It->second;
    return makeLoc(Name, LocSpace::GlobalArray, widthOfType(M.ElementType),
                   0, /*Implicit=*/true);
  }

  void emitUse(unsigned Loc, unsigned Line) {
    Info.Blocks[Cur].Events.push_back({Loc, AccessKind::Use, Line, ~0u});
  }

  void emitDef(unsigned Loc, unsigned Line, AccessKind Kind) {
    unsigned Id = static_cast<unsigned>(Info.Defs.size());
    Info.Defs.push_back({Loc, Line, Kind, false});
    Info.Blocks[Cur].Events.push_back({Loc, Kind, Line, Id});
  }

  void usesInExpr(const Expr &E, unsigned Line) {
    if (E.Kind == ExprKind::Var) {
      emitUse(scalarLoc(E.Name), Line);
      return;
    }
    if (E.Kind == ExprKind::Index) {
      emitUse(arrayLoc(E.Name), Line);
      for (const Expr &Kid : E.Kids)
        usesInExpr(Kid, Line);
      return;
    }
    for (const Expr &Kid : E.Kids)
      usesInExpr(Kid, Line);
  }

  /// Loop variables lose their declared type in parsing; infer the width
  /// from the operands of the init and bound expressions.
  unsigned loopVarWidth(const Stmt &S) {
    unsigned Width = 1;
    std::vector<std::string> Names;
    collectVars(S.LoopInit, Names);
    collectVars(S.LoopBound, Names);
    for (const std::string &Name : Names) {
      auto It = LocIndex.find(Name);
      if (It != LocIndex.end())
        Width = std::max(Width, Info.Locations[It->second].Width);
    }
    return Width;
  }

  void seedEntry() {
    Cur = newBlock("entry");
    for (const auto &[Name, Value] : M.Defines) {
      (void)Value;
      emitDef(makeLoc(Name, LocSpace::Scalar, 1, 1, true), 0,
              AccessKind::Def);
    }
    for (const std::string &Name : M.ExtentParams)
      emitDef(makeLoc(Name, LocSpace::Scalar, 2, 1, true), 0,
              AccessKind::Def);
    for (const char *Name : Builtins)
      emitDef(makeLoc(Name, LocSpace::Scalar, 1, 1, true), 0,
              AccessKind::Def);

    unsigned ElemWidth = widthOfType(M.ElementType);
    auto declareArray = [&](const Stmt &S, LocSpace Space) {
      int64_t Elements = evalExpr(S.Value, DefineEnv).value_or(0);
      unsigned Width = S.Type.empty() ? ElemWidth : widthOfType(S.Type);
      makeLoc(S.Name, Space, Width, Elements, false);
    };
    for (const Stmt &S : M.SharedDecls)
      declareArray(S, LocSpace::SharedArray);
    for (const Stmt &S : M.RegisterDecls)
      declareArray(S, LocSpace::RegisterArray);
  }

  void walk(const std::vector<Stmt> &Body) {
    for (const Stmt &S : Body)
      walkStmt(S);
  }

  void walkStmt(const Stmt &S) {
    switch (S.Kind) {
    case StmtKind::Decl: {
      usesInExpr(S.Value, S.Line);
      unsigned Loc = scalarLoc(S.Name);
      Info.Locations[Loc].Width =
          std::max(Info.Locations[Loc].Width, widthOfType(S.Type));
      emitDef(Loc, S.Line, AccessKind::Def);
      break;
    }
    case StmtKind::Assign:
      usesInExpr(S.Value, S.Line);
      emitDef(scalarLoc(S.Name), S.Line, AccessKind::Def);
      break;
    case StmtKind::CompoundMul:
    case StmtKind::CompoundDiv: {
      usesInExpr(S.Value, S.Line);
      unsigned Loc = scalarLoc(S.Name);
      emitUse(Loc, S.Line);
      emitDef(Loc, S.Line, AccessKind::Def);
      break;
    }
    case StmtKind::ArrayStore: {
      usesInExpr(S.Index, S.Line);
      usesInExpr(S.Value, S.Line);
      unsigned Loc = arrayLoc(S.Name);
      if (S.Accumulate)
        emitUse(Loc, S.Line);
      emitDef(Loc, S.Line, AccessKind::MayDef);
      break;
    }
    case StmtKind::ArrayDecl: {
      // Body-level array declaration (top-level ones were seeded).
      int64_t Elements = evalExpr(S.Value, DefineEnv).value_or(0);
      LocSpace Space =
          S.Shared ? LocSpace::SharedArray : LocSpace::RegisterArray;
      makeLoc(S.Name, Space,
              S.Type.empty() ? widthOfType(M.ElementType)
                             : widthOfType(S.Type),
              Elements, false);
      break;
    }
    case StmtKind::Barrier: {
      Info.Blocks[Cur].EndsWithBarrier = true;
      Info.Blocks[Cur].BarrierLine = S.Line;
      unsigned Next = newBlock("barrier:" + std::to_string(S.Line));
      edge(Cur, Next);
      Cur = Next;
      break;
    }
    case StmtKind::Loop: {
      usesInExpr(S.LoopInit, S.Line);
      unsigned LV = scalarLoc(S.LoopVar);
      Info.Locations[LV].Width =
          std::max(Info.Locations[LV].Width, loopVarWidth(S));
      emitDef(LV, S.Line, AccessKind::Def);
      unsigned Header = newBlock("loop-header:" + S.LoopVar);
      edge(Cur, Header);
      Cur = Header;
      emitUse(LV, S.Line);
      usesInExpr(S.LoopBound, S.Line);
      unsigned BodyB = newBlock("loop-body:" + S.LoopVar);
      edge(Header, BodyB);
      Cur = BodyB;
      walk(S.Body);
      // Latch: the increment reads and rewrites the induction variable,
      // then branches back to the header.
      usesInExpr(S.LoopStep, S.Line);
      emitUse(LV, S.Line);
      emitDef(LV, S.Line, AccessKind::Def);
      edge(Cur, Header);
      unsigned Exit = newBlock("loop-exit:" + S.LoopVar);
      edge(Header, Exit); // Zero-trip bypass and normal exit.
      Cur = Exit;
      break;
    }
    case StmtKind::If: {
      usesInExpr(S.Value, S.Line);
      unsigned From = Cur;
      unsigned Then = newBlock("then:" + std::to_string(S.Line));
      edge(From, Then);
      Cur = Then;
      walk(S.Body);
      unsigned Join = newBlock("join:" + std::to_string(S.Line));
      edge(From, Join); // Fall-through: the schema has no else branch.
      edge(Cur, Join);
      Cur = Join;
      break;
    }
    case StmtKind::Block:
      walk(S.Body);
      break;
    }
  }
};

//===----------------------------------------------------------------------===//
// Location sets and the two solvers
//===----------------------------------------------------------------------===//

/// A set of location indices, 64 to a word: the lattice value of both
/// solvers.
struct LocSet {
  std::vector<uint64_t> W;
  explicit LocSet(size_t N = 0) : W((N + 63) / 64, 0) {}
  void set(unsigned I) { W[I / 64] |= uint64_t(1) << (I % 64); }
  void reset(unsigned I) { W[I / 64] &= ~(uint64_t(1) << (I % 64)); }
  bool test(unsigned I) const { return (W[I / 64] >> (I % 64)) & 1; }
  void unite(const LocSet &O) {
    for (size_t I = 0; I < W.size(); ++I)
      W[I] |= O.W[I];
  }
};

/// Backward may-liveness: the locations live out of each block.
std::vector<LocSet> solveLiveness(const DataflowInfo &Info,
                                  const LocSet &ExitLive) {
  size_t NB = Info.Blocks.size(), NL = Info.Locations.size();
  std::vector<LocSet> UpUse(NB, LocSet(NL)), StrongDef(NB, LocSet(NL));
  for (unsigned B = 0; B < NB; ++B)
    for (const Access &E : Info.Blocks[B].Events) {
      if (E.Kind == AccessKind::Use) {
        if (!StrongDef[B].test(E.Loc))
          UpUse[B].set(E.Loc);
      } else if (E.Kind == AccessKind::Def) {
        StrongDef[B].set(E.Loc);
      } // MayDef neither uses nor kills.
    }

  std::vector<LocSet> LiveIn(NB, LocSet(NL)), LiveOut(NB, LocSet(NL));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NB; B-- > 0;) {
      LocSet Out(NL);
      if (Info.Blocks[B].Succs.empty())
        Out = ExitLive;
      for (unsigned S : Info.Blocks[B].Succs)
        Out.unite(LiveIn[S]);
      LocSet In(NL);
      for (size_t I = 0; I < In.W.size(); ++I)
        In.W[I] = UpUse[B].W[I] | (Out.W[I] & ~StrongDef[B].W[I]);
      if (Out.W != LiveOut[B].W || In.W != LiveIn[B].W) {
        LiveOut[B] = std::move(Out);
        LiveIn[B] = std::move(In);
        Changed = true;
      }
    }
  }
  return LiveOut;
}

/// Backward in-block walk over the liveness fixpoint: marks dead
/// definitions, counts the uses of each location and records the peak
/// simultaneous live scalar width.
void walkLiveness(DataflowInfo &Info) {
  size_t NL = Info.Locations.size();
  LocSet ExitLive(NL);
  for (unsigned L = 0; L < NL; ++L)
    if (Info.Locations[L].Space == LocSpace::GlobalArray)
      ExitLive.set(L);
  Info.UseCounts.assign(NL, 0);
  for (const BasicBlock &B : Info.Blocks)
    for (const Access &E : B.Events)
      if (E.Kind == AccessKind::Use)
        ++Info.UseCounts[E.Loc];
  std::vector<LocSet> LiveOut = solveLiveness(Info, ExitLive);

  auto countsForPressure = [&](unsigned L) {
    return Info.Locations[L].Space == LocSpace::Scalar &&
           !Info.Locations[L].Implicit;
  };

  unsigned MaxRegs = 0;
  for (unsigned B = 0; B < Info.Blocks.size(); ++B) {
    LocSet &Live = LiveOut[B];
    unsigned Regs = 0;
    for (unsigned L = 0; L < NL; ++L)
      if (Live.test(L) && countsForPressure(L))
        Regs += Info.Locations[L].Width;
    MaxRegs = std::max(MaxRegs, Regs);
    for (size_t I = Info.Blocks[B].Events.size(); I-- > 0;) {
      const Access &E = Info.Blocks[B].Events[I];
      if (E.Kind == AccessKind::Use) {
        if (!Live.test(E.Loc)) {
          Live.set(E.Loc);
          if (countsForPressure(E.Loc))
            Regs += Info.Locations[E.Loc].Width;
        }
      } else if (E.Kind == AccessKind::Def) {
        if (!Info.Locations[E.Loc].Implicit)
          Info.Defs[E.DefId].Dead = !Live.test(E.Loc) && !ExitLive.test(E.Loc);
        if (Live.test(E.Loc)) {
          Live.reset(E.Loc);
          if (countsForPressure(E.Loc))
            Regs -= Info.Locations[E.Loc].Width;
        }
      } else { // MayDef: dead only when the whole array is never read.
        Info.Defs[E.DefId].Dead =
            Info.UseCounts[E.Loc] == 0 && !ExitLive.test(E.Loc);
      }
      MaxRegs = std::max(MaxRegs, Regs);
    }
  }
  Info.MaxLiveScalarRegs = MaxRegs;

  unsigned ArrayRegs = 0;
  for (const Location &Loc : Info.Locations)
    if (Loc.Space == LocSpace::RegisterArray && Loc.Elements > 0)
      ArrayRegs += static_cast<unsigned>(Loc.Elements) * Loc.Width;
  Info.RegisterArrayRegs = ArrayRegs;
}

/// Forward "may be defined" over locations: a use of L is undefined iff
/// no path from entry to it holds a Def/MayDef of L, which is exactly
/// "no definition reaches it".
void findUndefinedUses(DataflowInfo &Info) {
  size_t NB = Info.Blocks.size(), NL = Info.Locations.size();
  std::vector<LocSet> Gen(NB, LocSet(NL));
  for (unsigned B = 0; B < NB; ++B)
    for (const Access &E : Info.Blocks[B].Events)
      if (E.Kind != AccessKind::Use)
        Gen[B].set(E.Loc);

  std::vector<LocSet> In(NB, LocSet(NL)), Out = Gen;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B < NB; ++B) {
      LocSet NewIn(NL);
      for (unsigned P : Info.Blocks[B].Preds)
        NewIn.unite(Out[P]);
      if (NewIn.W != In[B].W) {
        In[B] = std::move(NewIn);
        Out[B] = In[B];
        Out[B].unite(Gen[B]);
        Changed = true;
      }
    }
  }

  std::set<std::pair<unsigned, unsigned>> Seen;
  for (unsigned B = 0; B < NB; ++B) {
    LocSet Defined = In[B];
    for (const Access &E : Info.Blocks[B].Events) {
      if (E.Kind != AccessKind::Use)
        Defined.set(E.Loc);
      else if (!Defined.test(E.Loc) && !Info.Locations[E.Loc].Implicit &&
               Seen.insert({E.Loc, E.Line}).second)
        Info.UndefinedUses.push_back({E.Loc, E.Line});
    }
  }
}

//===----------------------------------------------------------------------===//
// SMEM lifetimes
//===----------------------------------------------------------------------===//

/// Written/read flags per shared buffer, from the CFG events.
void computeSmemLifetimes(DataflowInfo &Info) {
  std::map<unsigned, SmemBufferLifetime> Lifetimes;
  for (unsigned L = 0; L < Info.Locations.size(); ++L)
    if (Info.Locations[L].Space == LocSpace::SharedArray)
      Lifetimes[L].Loc = L;
  for (const BasicBlock &B : Info.Blocks)
    for (const Access &E : B.Events) {
      auto It = Lifetimes.find(E.Loc);
      if (It == Lifetimes.end())
        continue;
      if (E.Kind == AccessKind::Use)
        It->second.Read = true;
      else if (E.Kind == AccessKind::MayDef)
        It->second.Written = true;
    }
  for (const auto &[Loc, L] : Lifetimes)
    Info.SmemLifetimes.push_back(L);
}

} // namespace

//===----------------------------------------------------------------------===//
// Public API
//===----------------------------------------------------------------------===//

std::optional<unsigned>
DataflowInfo::location(const std::string &Name) const {
  for (unsigned I = 0; I < Locations.size(); ++I)
    if (Locations[I].Name == Name)
      return I;
  return std::nullopt;
}

ErrorOr<DataflowInfo>
cogent::analysis::buildDataflow(const KernelModel &M) {
  ++NumDataflowBuilds;
  DataflowInfo Info;
  CfgBuilder Builder(M, Info);
  Builder.seedEntry();
  Builder.walk(M.Body);

  walkLiveness(Info);
  findUndefinedUses(Info);

  computeSmemLifetimes(Info);

  for (const DefInfo &D : Info.Defs)
    NumDeadDefsFound += D.Dead;
  return Info;
}

std::string cogent::analysis::explainDataflow(const KernelModel &M,
                                              const DataflowInfo &Info) {
  std::ostringstream OS;
  OS << "KernelDataflow for " << M.KernelName << "\n";
  OS << "  blocks: " << Info.Blocks.size()
     << "  locations: " << Info.Locations.size()
     << "  definitions: " << Info.Defs.size() << "\n\n";

  OS << "  CFG:\n";
  for (unsigned B = 0; B < Info.Blocks.size(); ++B) {
    const BasicBlock &Blk = Info.Blocks[B];
    OS << "    [" << B << "] " << Blk.Label << " (" << Blk.Events.size()
       << " events) ->";
    if (Blk.Succs.empty())
      OS << " exit";
    for (unsigned S : Blk.Succs)
      OS << " " << S;
    if (Blk.EndsWithBarrier)
      OS << "  | barrier line " << Blk.BarrierLine;
    OS << "\n";
  }

  OS << "\n  register pressure:\n";
  OS << "    register arrays: " << Info.RegisterArrayRegs << " regs\n";
  OS << "    peak live scalars: " << Info.MaxLiveScalarRegs << " regs\n";
  OS << "    total estimate: " << Info.pressure() << " regs/thread\n";

  OS << "\n  shared staging lifetimes:\n";
  for (const SmemBufferLifetime &L : Info.SmemLifetimes)
    OS << "    " << Info.Locations[L.Loc].Name
       << (L.Written ? " written" : " never-written")
       << (L.Read ? " read" : " never-read") << "\n";

  unsigned Dead = 0;
  for (const DefInfo &D : Info.Defs)
    Dead += D.Dead;
  OS << "\n  dead definitions: " << Dead << "\n";
  for (const DefInfo &D : Info.Defs)
    if (D.Dead)
      OS << "    " << Info.Locations[D.Loc].Name << " at line " << D.Line
         << "\n";
  OS << "  undefined uses: " << Info.UndefinedUses.size() << "\n";
  for (const UndefinedUse &U : Info.UndefinedUses)
    OS << "    " << Info.Locations[U.Loc].Name << " at line " << U.Line
       << "\n";
  return OS.str();
}

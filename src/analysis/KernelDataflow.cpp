//===- analysis/KernelDataflow.cpp - CFG + liveness over emitted kernels --===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelDataflow.h"

#include "support/Counters.h"

#include <algorithm>
#include <functional>
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
    Info.Defs.push_back({Loc, Line, Kind, false, {}});
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
// Liveness (backward, location-granular)
//===----------------------------------------------------------------------===//

void solveLiveness(DataflowInfo &Info) {
  size_t NB = Info.Blocks.size(), NL = Info.Locations.size();
  std::vector<std::vector<bool>> UpUse(NB), StrongDef(NB);
  std::vector<bool> ExitLive(NL, false);
  for (unsigned L = 0; L < NL; ++L)
    ExitLive[L] = Info.Locations[L].Space == LocSpace::GlobalArray;

  for (unsigned B = 0; B < NB; ++B) {
    UpUse[B].assign(NL, false);
    StrongDef[B].assign(NL, false);
    for (const Access &E : Info.Blocks[B].Events) {
      if (E.Kind == AccessKind::Use) {
        if (!StrongDef[B][E.Loc])
          UpUse[B][E.Loc] = true;
      } else if (E.Kind == AccessKind::Def) {
        StrongDef[B][E.Loc] = true;
      } // MayDef neither uses nor kills.
    }
  }

  Info.LiveIn.assign(NB, std::vector<bool>(NL, false));
  Info.LiveOut.assign(NB, std::vector<bool>(NL, false));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = NB; B-- > 0;) {
      std::vector<bool> Out(NL, false);
      if (Info.Blocks[B].Succs.empty()) {
        Out = ExitLive;
      } else {
        for (unsigned S : Info.Blocks[B].Succs)
          for (unsigned L = 0; L < NL; ++L)
            if (Info.LiveIn[S][L])
              Out[L] = true;
      }
      std::vector<bool> In(NL);
      for (unsigned L = 0; L < NL; ++L)
        In[L] = UpUse[B][L] || (Out[L] && !StrongDef[B][L]);
      if (Out != Info.LiveOut[B] || In != Info.LiveIn[B]) {
        Info.LiveOut[B] = std::move(Out);
        Info.LiveIn[B] = std::move(In);
        Changed = true;
      }
    }
  }
}

/// Backward in-block walk over the liveness fixpoint: marks dead
/// definitions and records the peak simultaneous live scalar width.
void walkLiveness(DataflowInfo &Info) {
  size_t NL = Info.Locations.size();
  std::vector<bool> ExitLive(NL, false);
  std::vector<unsigned> TotalUses(NL, 0);
  for (unsigned L = 0; L < NL; ++L)
    ExitLive[L] = Info.Locations[L].Space == LocSpace::GlobalArray;
  for (const BasicBlock &B : Info.Blocks)
    for (const Access &E : B.Events)
      if (E.Kind == AccessKind::Use)
        ++TotalUses[E.Loc];

  auto countsForPressure = [&](unsigned L) {
    return Info.Locations[L].Space == LocSpace::Scalar &&
           !Info.Locations[L].Implicit;
  };

  unsigned MaxRegs = 0;
  for (unsigned B = 0; B < Info.Blocks.size(); ++B) {
    std::vector<bool> Live = Info.LiveOut[B];
    unsigned Regs = 0;
    for (unsigned L = 0; L < NL; ++L)
      if (Live[L] && countsForPressure(L))
        Regs += Info.Locations[L].Width;
    MaxRegs = std::max(MaxRegs, Regs);
    for (size_t I = Info.Blocks[B].Events.size(); I-- > 0;) {
      const Access &E = Info.Blocks[B].Events[I];
      if (E.Kind == AccessKind::Use) {
        if (!Live[E.Loc]) {
          Live[E.Loc] = true;
          if (countsForPressure(E.Loc))
            Regs += Info.Locations[E.Loc].Width;
        }
      } else if (E.Kind == AccessKind::Def) {
        if (!Info.Locations[E.Loc].Implicit)
          Info.Defs[E.DefId].Dead = !Live[E.Loc] && !ExitLive[E.Loc];
        if (Live[E.Loc]) {
          Live[E.Loc] = false;
          if (countsForPressure(E.Loc))
            Regs -= Info.Locations[E.Loc].Width;
        }
      } else { // MayDef: dead only when the whole array is never read.
        Info.Defs[E.DefId].Dead =
            TotalUses[E.Loc] == 0 && !ExitLive[E.Loc];
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

//===----------------------------------------------------------------------===//
// Reaching definitions (forward, definition-granular)
//===----------------------------------------------------------------------===//

struct DefBits {
  std::vector<uint64_t> W;
  explicit DefBits(size_t N = 0) : W((N + 63) / 64, 0) {}
  void set(unsigned I) { W[I / 64] |= uint64_t(1) << (I % 64); }
  void clear(unsigned I) { W[I / 64] &= ~(uint64_t(1) << (I % 64)); }
  bool test(unsigned I) const {
    return (W[I / 64] >> (I % 64)) & 1;
  }
  bool orWith(const DefBits &O) {
    bool Changed = false;
    for (size_t I = 0; I < W.size(); ++I) {
      uint64_t Next = W[I] | O.W[I];
      Changed |= Next != W[I];
      W[I] = Next;
    }
    return Changed;
  }
};

void solveReachingDefs(DataflowInfo &Info) {
  size_t NB = Info.Blocks.size(), ND = Info.Defs.size();
  std::vector<std::vector<unsigned>> DefsOfLoc(Info.Locations.size());
  for (unsigned D = 0; D < ND; ++D)
    DefsOfLoc[Info.Defs[D].Loc].push_back(D);

  // Per-block transfer: apply events forward to a bitset.
  auto transfer = [&](unsigned B, DefBits &R,
                      const std::function<void(const Access &,
                                               const DefBits &)> &AtUse) {
    for (const Access &E : Info.Blocks[B].Events) {
      if (E.Kind == AccessKind::Use) {
        if (AtUse)
          AtUse(E, R);
        continue;
      }
      if (E.Kind == AccessKind::Def)
        for (unsigned D : DefsOfLoc[E.Loc])
          R.clear(D);
      R.set(E.DefId);
    }
  };

  std::vector<DefBits> In(NB, DefBits(ND)), Out(NB, DefBits(ND));
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B = 0; B < NB; ++B) {
      DefBits NewIn(ND);
      for (unsigned P : Info.Blocks[B].Preds)
        NewIn.orWith(Out[P]);
      DefBits NewOut = NewIn;
      transfer(B, NewOut, nullptr);
      bool InChanged = NewIn.W != In[B].W;
      bool OutChanged = NewOut.W != Out[B].W;
      if (InChanged || OutChanged) {
        In[B] = std::move(NewIn);
        Out[B] = std::move(NewOut);
        Changed = true;
      }
    }
  }

  // Final walk: attach uses to the definitions that reach them.
  std::set<std::pair<unsigned, unsigned>> SeenUndef, SeenChain;
  for (unsigned B = 0; B < NB; ++B) {
    DefBits R = In[B];
    transfer(B, R, [&](const Access &E, const DefBits &Reach) {
      bool Any = false;
      for (unsigned D : DefsOfLoc[E.Loc])
        if (Reach.test(D)) {
          Any = true;
          if (SeenChain.insert({D, E.Line}).second)
            Info.Defs[D].UseLines.push_back(E.Line);
        }
      if (!Any && !Info.Locations[E.Loc].Implicit &&
          SeenUndef.insert({E.Loc, E.Line}).second)
        Info.UndefinedUses.push_back({E.Loc, E.Line});
    });
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

const char *cogent::analysis::locSpaceName(LocSpace Space) {
  switch (Space) {
  case LocSpace::Scalar:
    return "scalar";
  case LocSpace::RegisterArray:
    return "register-array";
  case LocSpace::SharedArray:
    return "shared-array";
  case LocSpace::GlobalArray:
    return "global-array";
  }
  return "unknown";
}

std::optional<unsigned>
DataflowInfo::location(const std::string &Name) const {
  for (unsigned I = 0; I < Locations.size(); ++I)
    if (Locations[I].Name == Name)
      return I;
  return std::nullopt;
}

unsigned DataflowInfo::useCount(unsigned Loc) const {
  unsigned N = 0;
  for (const BasicBlock &B : Blocks)
    for (const Access &E : B.Events)
      N += E.Kind == AccessKind::Use && E.Loc == Loc;
  return N;
}

ErrorOr<DataflowInfo>
cogent::analysis::buildDataflow(const KernelModel &M) {
  ++NumDataflowBuilds;
  DataflowInfo Info;
  CfgBuilder Builder(M, Info);
  Builder.seedEntry();
  Builder.walk(M.Body);

  solveLiveness(Info);
  walkLiveness(Info);
  solveReachingDefs(Info);

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

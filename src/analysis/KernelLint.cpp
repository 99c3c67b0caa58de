//===- analysis/KernelLint.cpp - Static analyzer for emitted kernels ------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelLint.h"

#include "analysis/KernelDataflow.h"
#include "analysis/KernelRaceProver.h"
#include "core/CostModel.h"
#include "support/Counters.h"

#include <algorithm>
#include <functional>
#include <set>
#include <sstream>

using namespace cogent;
using namespace cogent::analysis;
using core::CoordRole;
using core::KernelPlan;
using core::SliceDim;
using core::StoreDim;
using ir::Operand;

namespace {

COGENT_COUNTER(NumKernelsLinted, "lint.kernels-linted",
               "Kernel sources analyzed by KernelLint");
COGENT_COUNTER(NumLintFindingsTotal, "lint.findings",
               "Total findings reported across all KernelLint runs");

//===----------------------------------------------------------------------===//
// Name tables
//===----------------------------------------------------------------------===//

constexpr const char *PassNames[NumLintPasses] = {
    "structure",         "bank-conflict",     "coalescing",
    "bounds-check",      "resource-decl",     "register-pressure",
    "redundant-barrier", "dead-store",        "smem-lifetime",
    "uniformity",        "race-freedom",      "barrier-uniformity",
};

constexpr const char *ModeNames[3] = {"off", "warn", "strict"};

/// The coordinate variable CodeGen names for a slice/store dimension.
std::string roleCoordName(CoordRole Role, char Name) {
  switch (Role) {
  case CoordRole::ThreadX:
  case CoordRole::ThreadY:
    return std::string("t_") + Name;
  case CoordRole::RegX:
    return std::string("x_") + Name;
  case CoordRole::RegY:
    return std::string("y_") + Name;
  case CoordRole::Step:
    return std::string("k_") + Name;
  case CoordRole::Fixed:
    return std::string();
  }
  return std::string();
}

//===----------------------------------------------------------------------===//
// Shared pass context
//===----------------------------------------------------------------------===//

struct LintContext {
  const KernelPlan &Plan;
  const KernelModel &M;
  const LintOptions &Opts;
  std::vector<LintFinding> &Findings;
  DefCensus Defs;
  /// buildAmbient's folded constants (defines, extents, stride variables,
  /// nt_/ns_ factors).
  Env Ambient;

  void report(LintPass Pass, unsigned Line, std::string Message,
              LintSeverity Severity = LintSeverity::Error) {
    Findings.push_back({Pass, Severity, Line, std::move(Message)});
  }
};

//===----------------------------------------------------------------------===//
// ResourceDecl pass
//===----------------------------------------------------------------------===//

void passResourceDecl(LintContext &C) {
  const KernelPlan &Plan = C.Plan;
  auto checkDefine = [&](const char *Name, int64_t Expected) {
    auto It = C.M.Defines.find(Name);
    if (It == C.M.Defines.end()) {
      C.report(LintPass::ResourceDecl, 0,
               std::string("missing #define ") + Name);
      return;
    }
    if (It->second != Expected)
      C.report(LintPass::ResourceDecl, 0,
               std::string("#define ") + Name + " is " +
                   std::to_string(It->second) + " but the verified plan says " +
                   std::to_string(Expected));
  };
  checkDefine("TBX", Plan.tbX());
  checkDefine("TBY", Plan.tbY());
  checkDefine("NTHREADS", Plan.threadsPerBlock());
  checkDefine("REGX", Plan.regX());
  checkDefine("REGY", Plan.regY());
  checkDefine("TBK", Plan.tbk());

  const char *ExpectedElem = C.Opts.ElementSize == 4 ? "float" : "double";
  if (C.M.ElementType != ExpectedElem)
    C.report(LintPass::ResourceDecl, 0,
             "kernel element type is " + C.M.ElementType + " but options say " +
                 ExpectedElem + " (element size " +
                 std::to_string(C.Opts.ElementSize) + ")");

  int64_t BufCount = C.M.DoubleBuffer ? 2 : 1;
  auto checkShared = [&](const char *Name, Operand Op) {
    const Stmt *Decl = C.M.arrayDecl(Name);
    if (!Decl || !Decl->Shared) {
      C.report(LintPass::ResourceDecl, 0,
               std::string("missing shared-memory declaration ") + Name);
      return;
    }
    std::optional<int64_t> Size = evalExpr(Decl->Value, C.Ambient);
    int64_t Expected = BufCount * Plan.sliceElements(Op);
    if (!Size || *Size != Expected)
      C.report(LintPass::ResourceDecl, Decl->Line,
               std::string(Name) + " declares " +
                   (Size ? std::to_string(*Size) : std::string("?")) +
                   " elements but the plan stages " + std::to_string(Expected));
    if (Decl->Type != ExpectedElem)
      C.report(LintPass::ResourceDecl, Decl->Line,
               std::string(Name) + " is declared " + Decl->Type +
                   " but the element type is " + ExpectedElem);
  };
  checkShared("s_A", Operand::A);
  checkShared("s_B", Operand::B);

  auto checkReg = [&](const char *Name, int64_t Expected) {
    const Stmt *Decl = C.M.arrayDecl(Name);
    if (!Decl) {
      C.report(LintPass::ResourceDecl, 0,
               std::string("missing register-tile declaration ") + Name);
      return;
    }
    std::optional<int64_t> Size = evalExpr(Decl->Value, C.Ambient);
    if (!Size || *Size != Expected)
      C.report(LintPass::ResourceDecl, Decl->Line,
               std::string(Name) + " declares " +
                   (Size ? std::to_string(*Size) : std::string("?")) +
                   " elements but the plan's register tile needs " +
                   std::to_string(Expected));
  };
  checkReg("r_C", Plan.regX() * Plan.regY());
  checkReg("r_A", Plan.regX());
  checkReg("r_B", Plan.regY());
}

//===----------------------------------------------------------------------===//
// BankConflict pass (SMEM strides vs. plan)
//===----------------------------------------------------------------------===//

std::optional<Operand> smemOperand(const std::string &Array) {
  if (Array == "s_A")
    return Operand::A;
  if (Array == "s_B")
    return Operand::B;
  return std::nullopt;
}

/// Checks one linearized SMEM index against the expected coordinate ->
/// stride map; \p What names the access for messages.
void checkSmemForm(LintContext &C, unsigned Line, const std::string &What,
                   const IndexForm &Form,
                   const std::vector<std::pair<std::string, int64_t>> &Expected,
                   int64_t BufferElems, bool BufferAllowed) {
  std::vector<IndexTerm> Rest = Form.Terms;
  for (const auto &[Coord, Stride] : Expected) {
    auto It = std::find_if(Rest.begin(), Rest.end(), [&](const IndexTerm &T) {
      return T.Coord == Coord;
    });
    if (It == Rest.end()) {
      if (Stride != 0)
        C.report(LintPass::BankConflict, Line,
                 What + " drops the staging term for " + Coord +
                     " (plan stride " + std::to_string(Stride) + ")");
      continue;
    }
    if (It->Coeff != Stride)
      C.report(LintPass::BankConflict, Line,
               What + " strides " + Coord + " by " +
                   std::to_string(It->Coeff) + " but the plan's staging "
                   "layout says " + std::to_string(Stride));
    Rest.erase(It);
  }
  int64_t Constant = Form.Constant;
  if (BufferAllowed) {
    // Double-buffer bases: +buf*E (front) or E - buf*E (back).
    auto It = std::find_if(Rest.begin(), Rest.end(), [&](const IndexTerm &T) {
      return T.Coord == "buf";
    });
    if (It != Rest.end()) {
      bool Front = It->Coeff == BufferElems && Constant == 0;
      bool Back = It->Coeff == -BufferElems && Constant == BufferElems;
      if (!Front && !Back)
        C.report(LintPass::BankConflict, Line,
                 What + " uses a buffer base of " + std::to_string(It->Coeff) +
                     "*buf + " + std::to_string(Constant) +
                     " but the staged slice holds " +
                     std::to_string(BufferElems) + " elements");
      Rest.erase(It);
      Constant = 0;
    }
  }
  for (const IndexTerm &T : Rest)
    C.report(LintPass::BankConflict, Line,
             What + " has an unexpected index term " + T.Coord + " * " +
                 std::to_string(T.Coeff));
  if (Constant != 0)
    C.report(LintPass::BankConflict, Line,
             What + " has a constant offset " + std::to_string(Constant) +
                 " the plan does not explain");
}

void passBankConflict(LintContext &C) {
  forEachStmt(C.M.Body, [&](const Stmt &S) {
    if (S.Kind != StmtKind::ArrayStore)
      return;
    // Staging writes: s_X[...] = ...
    if (std::optional<Operand> Op = smemOperand(S.Name)) {
      std::optional<IndexForm> Form = linearizeIndex(S.Index, C.Ambient);
      if (!Form) {
        C.report(LintPass::BankConflict, S.Line,
                 "SMEM store index of " + S.Name + " is not affine: " +
                     renderExpr(S.Index));
        return;
      }
      std::vector<std::pair<std::string, int64_t>> Expected;
      for (const SliceDim &Dim : C.Plan.sliceDims(*Op))
        Expected.emplace_back(std::string("i_") + Dim.Name, Dim.SmemStride);
      checkSmemForm(C, S.Line, "staging write to " + S.Name, *Form, Expected,
                    C.Plan.sliceElements(*Op), C.M.DoubleBuffer);
    }
    // Compute reads: Index nodes over s_X inside any stored value.
    forEachIndexExpr(S.Value, [&](const Expr &Ref) {
      std::optional<Operand> Op = smemOperand(Ref.Name);
      if (!Op)
        return;
      std::optional<IndexForm> Form = linearizeIndex(Ref.Kids[0], C.Ambient);
      if (!Form) {
        C.report(LintPass::BankConflict, S.Line,
                 "SMEM read index of " + Ref.Name + " is not affine: " +
                     renderExpr(Ref.Kids[0]));
        return;
      }
      std::vector<std::pair<std::string, int64_t>> Expected;
      for (const SliceDim &Dim : C.Plan.sliceDims(*Op)) {
        if (Dim.Role == CoordRole::Fixed)
          continue;
        Expected.emplace_back(roleCoordName(Dim.Role, Dim.Name),
                              Dim.SmemStride);
      }
      checkSmemForm(C, S.Line, "compute read of " + Ref.Name, *Form, Expected,
                    C.Plan.sliceElements(*Op), C.M.DoubleBuffer);
    });
  });
}

//===----------------------------------------------------------------------===//
// Coalescing pass (GMEM strides and tile bases vs. plan)
//===----------------------------------------------------------------------===//

void checkGmemForm(LintContext &C, unsigned Line, const std::string &What,
                   const IndexForm &Form,
                   const std::vector<std::pair<std::string, int64_t>>
                       &Expected) {
  std::vector<IndexTerm> Rest = Form.Terms;
  for (const auto &[Coord, Stride] : Expected) {
    auto It = std::find_if(Rest.begin(), Rest.end(), [&](const IndexTerm &T) {
      return T.Coord == Coord;
    });
    if (It == Rest.end()) {
      if (Stride != 0)
        C.report(LintPass::Coalescing, Line,
                 What + " drops the global term for " + Coord +
                     " (plan stride " + std::to_string(Stride) + ")");
      continue;
    }
    if (It->Coeff != Stride)
      C.report(LintPass::Coalescing, Line,
               What + " strides " + Coord + " by " +
                   std::to_string(It->Coeff) +
                   " but the tensor layout says " + std::to_string(Stride) +
                   " (warp-lane coalescing depends on it)");
    Rest.erase(It);
  }
  for (const IndexTerm &T : Rest)
    C.report(LintPass::Coalescing, Line,
             What + " has an unexpected address term " + T.Coord + " * " +
                 std::to_string(T.Coeff));
  if (Form.Constant != 0)
    C.report(LintPass::Coalescing, Line,
             What + " carries a constant address offset " +
                 std::to_string(Form.Constant));
}

/// Checks a per-element coordinate definition (g_x = base_x + i_x, or
/// gc_x = base_x + <role coord>) against the plan's expectation.
void checkCoordDef(LintContext &C, const Stmt &S, const std::string &What,
                   const std::vector<std::pair<std::string, int64_t>>
                       &Expected) {
  std::optional<IndexForm> Form = linearizeIndex(S.Value, C.Ambient);
  if (!Form) {
    C.report(LintPass::Coalescing, S.Line,
             What + " is not affine: " + renderExpr(S.Value));
    return;
  }
  std::vector<IndexTerm> Rest = Form->Terms;
  for (const auto &[Coord, Coeff] : Expected) {
    auto It = std::find_if(Rest.begin(), Rest.end(), [&](const IndexTerm &T) {
      return T.Coord == Coord;
    });
    if (It == Rest.end()) {
      C.report(LintPass::Coalescing, S.Line,
               What + " does not add " + Coord + " (the plan's tile base "
               "for this index)");
      continue;
    }
    if (It->Coeff != Coeff)
      C.report(LintPass::Coalescing, S.Line,
               What + " scales " + Coord + " by " +
                   std::to_string(It->Coeff) + " instead of " +
                   std::to_string(Coeff));
    Rest.erase(It);
  }
  for (const IndexTerm &T : Rest)
    C.report(LintPass::Coalescing, S.Line,
             What + " adds an unexpected term " + T.Coord + " * " +
                 std::to_string(T.Coeff));
  if (Form->Constant != 0)
    C.report(LintPass::Coalescing, S.Line,
             What + " adds a constant " + std::to_string(Form->Constant));
}

void passCoalescing(LintContext &C) {
  const ir::Contraction &TC = C.Plan.contraction();

  // Global loads inside the staging stores.
  forEachStmt(C.M.Body, [&](const Stmt &S) {
    if (S.Kind == StmtKind::ArrayStore && smemOperand(S.Name)) {
      forEachIndexExpr(S.Value, [&](const Expr &Ref) {
        Operand Op;
        if (Ref.Name == "g_A")
          Op = Operand::A;
        else if (Ref.Name == "g_B")
          Op = Operand::B;
        else
          return;
        std::optional<IndexForm> Form =
            linearizeIndex(Ref.Kids[0], C.Ambient);
        if (!Form) {
          C.report(LintPass::Coalescing, S.Line,
                   "global load index of " + Ref.Name + " is not affine: " +
                       renderExpr(Ref.Kids[0]));
          return;
        }
        std::vector<std::pair<std::string, int64_t>> Expected;
        for (const SliceDim &Dim : C.Plan.sliceDims(Op))
          Expected.emplace_back(std::string("g_") + Dim.Name,
                                Dim.GlobalStride);
        checkGmemForm(C, S.Line, "global load of " + Ref.Name, *Form,
                      Expected);
      });
    }
    // The output store.
    if (S.Kind == StmtKind::ArrayStore && S.Name == "g_C") {
      std::optional<IndexForm> Form = linearizeIndex(S.Index, C.Ambient);
      if (!Form) {
        C.report(LintPass::Coalescing, S.Line,
                 "global store index of g_C is not affine: " +
                     renderExpr(S.Index));
        return;
      }
      std::vector<std::pair<std::string, int64_t>> Expected;
      for (const StoreDim &Dim : C.Plan.storeDims())
        Expected.emplace_back(std::string("gc_") + Dim.Name,
                              Dim.GlobalStride);
      checkGmemForm(C, S.Line, "global store of g_C", *Form, Expected);
    }
  });

  // Per-element coordinate definitions: g_<i> = (k)base_<i> + i_<i> in the
  // slice loops, gc_<i> = base_<i> + <role coord> in the store.
  forEachStmt(C.M.Body, [&](const Stmt &S) {
    if (S.Kind != StmtKind::Decl || S.Name.size() < 3)
      return;
    if (S.Name.rfind("g_", 0) == 0 && S.Name.size() == 3 &&
        std::islower(static_cast<unsigned char>(S.Name[2]))) {
      char Name = S.Name[2];
      std::string Base = (TC.isInternal(Name) ? "kbase_" : "base_") +
                         std::string(1, Name);
      checkCoordDef(C, S, "slice coordinate " + S.Name,
                    {{Base, 1}, {std::string("i_") + Name, 1}});
    }
    if (S.Name.rfind("gc_", 0) == 0 && S.Name.size() == 4) {
      char Name = S.Name[3];
      for (const StoreDim &Dim : C.Plan.storeDims()) {
        if (Dim.Name != Name)
          continue;
        std::vector<std::pair<std::string, int64_t>> Expected = {
            {std::string("base_") + Name, 1}};
        std::string Coord = roleCoordName(Dim.Role, Dim.Name);
        if (!Coord.empty())
          Expected.emplace_back(Coord, 1);
        checkCoordDef(C, S, "store coordinate " + S.Name, Expected);
      }
    }
  });
}

//===----------------------------------------------------------------------===//
// BoundsCheck pass
//===----------------------------------------------------------------------===//

void passBoundsCheck(LintContext &C) {
  const ir::Contraction &TC = C.Plan.contraction();
  RangeAnalysis Ranges(C.M, C.Ambient, C.Defs);

  // 1. Decode moduli must equal the plan's tiles.
  forEachStmt(C.M.Body, [&](const Stmt &S) {
    if (S.Kind != StmtKind::Decl || S.Value.Kind != ExprKind::Mod ||
        S.Name.size() < 3 || S.Name[1] != '_')
      return;
    char Name = S.Name[2];
    std::optional<int64_t> K = evalExpr(S.Value.Kids[1], C.Ambient);
    if (!K)
      return;
    auto expectTile = [&](int64_t Tile) {
      if (*K != Tile)
        C.report(LintPass::BoundsCheck, S.Line,
                 "decode of " + S.Name + " uses modulus " +
                     std::to_string(*K) + " but the plan tiles index '" +
                     std::string(1, Name) + "' by " + std::to_string(Tile));
    };
    if (S.Name[0] == 'i' && S.Name.size() == 3) {
      for (Operand Op : {Operand::A, Operand::B}) {
        // A slice decode belongs to the operand whose staging loop it sits
        // in; both operands share index names only through the plan, so
        // check against the dims that actually carry this name.
        for (const SliceDim &Dim : C.Plan.sliceDims(Op))
          if (Dim.Name == Name && TC.contains(Op, Name))
            expectTile(Dim.Tile);
      }
    }
  });

  // 2. Interval analysis of every SMEM / register array access.
  auto checkAccess = [&](const std::string &Array, const Expr &Index,
                         unsigned Line) {
    const Stmt *Decl = C.M.arrayDecl(Array);
    if (!Decl)
      return; // ResourceDecl reports the missing declaration.
    std::optional<int64_t> Size = evalExpr(Decl->Value, C.Ambient);
    std::optional<ValueRange> Range = Ranges.of(Index);
    if (!Size || !Range)
      return;
    if (Range->Hi >= *Size)
      C.report(LintPass::BoundsCheck, Line,
               "index into " + Array + " can reach " +
                   std::to_string(Range->Hi) + " but only " +
                   std::to_string(*Size) + " elements are declared");
    if (Range->Lo < 0)
      C.report(LintPass::BoundsCheck, Line,
               "index into " + Array + " can go negative (" +
                   std::to_string(Range->Lo) + ")");
  };
  forEachStmt(C.M.Body, [&](const Stmt &S) {
    if (S.Kind != StmtKind::ArrayStore)
      return;
    if (S.Name.rfind("s_", 0) == 0 || S.Name.rfind("r_", 0) == 0)
      checkAccess(S.Name, S.Index, S.Line);
    forEachIndexExpr(S.Value, [&](const Expr &Ref) {
      if (Ref.Name.rfind("s_", 0) == 0 || Ref.Name.rfind("r_", 0) == 0)
        checkAccess(Ref.Name, Ref.Kids[0], S.Line);
    });
  });

  // 3. Guard completeness: every slice load must bounds-test each staged
  // index, every store must bounds-test each output index.
  auto conjuncts = [](const Expr &E, auto &&Self,
                      std::vector<const Expr *> &Out) -> void {
    if (E.Kind == ExprKind::And) {
      Self(E.Kids[0], Self, Out);
      Self(E.Kids[1], Self, Out);
    } else {
      Out.push_back(&E);
    }
  };
  auto guardedNames = [&](const Expr &Cond, const std::string &Prefix) {
    std::set<char> Guarded;
    std::vector<const Expr *> Terms;
    conjuncts(Cond, conjuncts, Terms);
    for (const Expr *T : Terms) {
      if (T->Kind != ExprKind::Lt || T->Kids[0].Kind != ExprKind::Var ||
          T->Kids[1].Kind != ExprKind::Var)
        continue;
      const std::string &L = T->Kids[0].Name;
      const std::string &R = T->Kids[1].Name;
      if (L.rfind(Prefix, 0) == 0 && R.rfind("N_", 0) == 0 &&
          L.substr(Prefix.size()) == R.substr(2))
        Guarded.insert(L.back());
    }
    return Guarded;
  };

  // Slice loads: the staged value must be guarded by a conjunction over
  // every slice dimension. The `inb` guard is resolved within the store's
  // own statement list — each slice-load loop hoists its own `inb`, so a
  // global lookup would see another loop's guard.
  std::function<void(const std::vector<Stmt> &)> WalkLoads =
      [&](const std::vector<Stmt> &Body) {
        for (size_t I = 0; I < Body.size(); ++I) {
          const Stmt &S = Body[I];
          if (!S.Body.empty())
            WalkLoads(S.Body);
          if (S.Kind != StmtKind::ArrayStore)
            continue;
          std::optional<Operand> Op = smemOperand(S.Name);
          if (!Op)
            continue;
          const Expr *Cond = nullptr;
          if (S.Value.Kind == ExprKind::Ternary)
            Cond = &S.Value.Kids[0];
          if (!Cond) {
            C.report(LintPass::BoundsCheck, S.Line,
                     "staging store to " + S.Name +
                         " is not guarded by a bounds test");
            continue;
          }
          const Expr *Resolved = Cond;
          if (Cond->Kind == ExprKind::Var) {
            Resolved = nullptr;
            for (size_t J = 0; J < I; ++J)
              if (Body[J].Kind == StmtKind::Decl &&
                  Body[J].Name == Cond->Name)
                Resolved = &Body[J].Value;
            if (!Resolved) {
              C.report(LintPass::BoundsCheck, S.Line,
                       "staging guard '" + Cond->Name +
                           "' has no definition");
              continue;
            }
          }
          std::set<char> Guarded = guardedNames(*Resolved, "g_");
          for (const SliceDim &Dim : C.Plan.sliceDims(*Op))
            if (Dim.Extent > 0 && !Guarded.count(Dim.Name))
              C.report(LintPass::BoundsCheck, S.Line,
                       "slice load of " +
                           std::string(ir::operandName(*Op)) +
                           " does not bounds-test index '" +
                           std::string(1, Dim.Name) + "' against N_" +
                           std::string(1, Dim.Name));
        }
      };
  WalkLoads(C.M.Body);

  // The output store: find g_C stores and the guards above them.
  std::function<void(const std::vector<Stmt> &, std::vector<const Expr *>)>
      WalkStore = [&](const std::vector<Stmt> &Body,
                      std::vector<const Expr *> Conds) {
        for (const Stmt &S : Body) {
          std::vector<const Expr *> Inner = Conds;
          if (S.Kind == StmtKind::If)
            Inner.push_back(&S.Value);
          if (S.Kind == StmtKind::ArrayStore && S.Name == "g_C") {
            std::set<char> Guarded;
            for (const Expr *Cond : Inner) {
              std::set<char> G = guardedNames(*Cond, "gc_");
              Guarded.insert(G.begin(), G.end());
            }
            for (const StoreDim &Dim : C.Plan.storeDims())
              if (!Guarded.count(Dim.Name))
                C.report(LintPass::BoundsCheck, S.Line,
                         "store to g_C does not bounds-test index '" +
                             std::string(1, Dim.Name) + "' against N_" +
                             std::string(1, Dim.Name));
          }
          if (!S.Body.empty())
            WalkStore(S.Body, Inner);
        }
      };
  WalkStore(C.M.Body, {});
}

//===----------------------------------------------------------------------===//
// Dataflow- and prover-backed passes — RegisterPressure, RedundantBarrier,
// DeadStore and SmemLifetime share one KernelDataflow build and one
// KernelRaceProver run.
//===----------------------------------------------------------------------===//

void passRegisterPressure(LintContext &C, const DataflowInfo &Flow) {
  unsigned Source = Flow.pressure();
  unsigned PlanEstimate =
      core::planRegisterPressure(C.Plan, C.Opts.ElementSize);
  if (Source > PlanEstimate + PressureToleranceRegs)
    C.report(LintPass::RegisterPressure, 0,
             "liveness-derived register pressure " + std::to_string(Source) +
                 " exceeds the plan estimate " + std::to_string(PlanEstimate) +
                 " by more than " + std::to_string(PressureToleranceRegs) +
                 " registers");
  if (Source > C.Opts.RegisterBudget + PressureToleranceRegs)
    C.report(LintPass::RegisterPressure, 0,
             "liveness-derived register pressure " + std::to_string(Source) +
                 " exceeds the device budget of " +
                 std::to_string(C.Opts.RegisterBudget) + " registers");
}

void passRedundantBarrier(LintContext &C, const RaceReport &Races) {
  for (const BarrierVerdict &V : Races.Barriers)
    if (V.Redundant)
      C.report(LintPass::RedundantBarrier, V.Line,
               "barrier separates no shared-memory access pair (same "
               "buffer, at least one write) between its intervals");
}

void passDeadStore(LintContext &C, const DataflowInfo &Flow) {
  for (const DefInfo &D : Flow.Defs) {
    if (!D.Dead)
      continue;
    const Location &Loc = Flow.Locations[D.Loc];
    if (Loc.Space == LocSpace::Scalar)
      C.report(LintPass::DeadStore, D.Line,
               Flow.UseCounts[D.Loc] == 0
                   ? "scalar '" + Loc.Name + "' is written but never used"
                   : "store to '" + Loc.Name +
                         "' is overwritten before any use");
    else if (Loc.Space == LocSpace::RegisterArray)
      C.report(LintPass::DeadStore, D.Line,
               "register tile '" + Loc.Name + "' is staged but never read");
  }
  for (const UndefinedUse &U : Flow.UndefinedUses)
    C.report(LintPass::DeadStore, U.Line,
             "'" + Flow.Locations[U.Loc].Name +
                 "' is read before any definition");
}

void passSmemLifetime(LintContext &C, const DataflowInfo &Flow,
                      const RaceReport &Races) {
  for (const SmemBufferLifetime &L : Flow.SmemLifetimes) {
    const Location &Loc = Flow.Locations[L.Loc];
    if (L.Written && !L.Read)
      C.report(LintPass::SmemLifetime, 0,
               "shared buffer '" + Loc.Name + "' is written but never read");
    else if (L.Read && !L.Written)
      C.report(LintPass::SmemLifetime, 0,
               "shared buffer '" + Loc.Name + "' is read but never written");
  }
  if (Races.DisjointSmemStaging)
    C.report(LintPass::SmemLifetime, 0,
             "staging buffers have disjoint live ranges; the allocations "
             "could share storage",
             LintSeverity::Warning);
}

//===----------------------------------------------------------------------===//
// Race prover passes (10-12): Uniformity / RaceFreedom / BarrierUniformity
//===----------------------------------------------------------------------===//

void passRaceProver(LintContext &C, const RaceReport &Races) {
  for (const RaceFinding &F : Races.Findings) {
    LintPass Pass = LintPass::RaceFreedom;
    LintSeverity Severity = LintSeverity::Error;
    switch (F.Kind) {
    case RaceFindingKind::NonUniformValue:
      Pass = LintPass::Uniformity;
      break;
    case RaceFindingKind::UnknownUniformity:
      Pass = LintPass::Uniformity;
      Severity = LintSeverity::Warning;
      break;
    case RaceFindingKind::DivergentBarrier:
      Pass = LintPass::BarrierUniformity;
      break;
    case RaceFindingKind::UnprovenAccess:
      Severity = LintSeverity::Warning;
      break;
    case RaceFindingKind::WriteWriteRace:
    case RaceFindingKind::WriteReadRace:
    case RaceFindingKind::NonAffineAccess:
      break;
    }
    C.report(Pass, F.Line, F.render(), Severity);
  }
}

//===----------------------------------------------------------------------===//
// lintKernel
//===----------------------------------------------------------------------===//

void dedupeFindings(std::vector<LintFinding> &Findings) {
  std::set<std::tuple<unsigned, unsigned, std::string>> Seen;
  std::vector<LintFinding> Out;
  Out.reserve(Findings.size());
  for (LintFinding &F : Findings)
    if (Seen
            .insert({static_cast<unsigned>(F.Pass), F.Line, F.Message})
            .second)
      Out.push_back(std::move(F));
  Findings = std::move(Out);
}

} // namespace

const char *cogent::analysis::lintPassName(LintPass Pass) {
  unsigned I = static_cast<unsigned>(Pass);
  return I < NumLintPasses ? PassNames[I] : "unknown";
}

std::optional<LintPass>
cogent::analysis::lintPassFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumLintPasses; ++I)
    if (Name == PassNames[I])
      return static_cast<LintPass>(I);
  return std::nullopt;
}

bool cogent::analysis::isRacePass(LintPass Pass) {
  return Pass == LintPass::Uniformity || Pass == LintPass::RaceFreedom ||
         Pass == LintPass::BarrierUniformity;
}

const char *cogent::analysis::lintSeverityName(LintSeverity Severity) {
  return Severity == LintSeverity::Error ? "error" : "warning";
}

const char *cogent::analysis::lintModeName(LintMode Mode) {
  return ModeNames[static_cast<unsigned>(Mode)];
}

std::optional<LintMode>
cogent::analysis::lintModeFromName(const std::string &Name) {
  for (unsigned I = 0; I < 3; ++I)
    if (Name == ModeNames[I])
      return static_cast<LintMode>(I);
  return std::nullopt;
}

std::string LintFinding::render() const {
  std::string Out = std::string(lintSeverityName(Severity)) + ": [" +
                    lintPassName(Pass) + "]";
  if (Line > 0)
    Out += " line " + std::to_string(Line) + ":";
  return Out + " " + Message;
}

LintReport cogent::analysis::lintKernel(const KernelPlan &Plan,
                                        const std::string &KernelSource,
                                        const LintOptions &Options) {
  LintReport Report;
  if (Options.Mode == LintMode::Off)
    return Report;
  ++NumKernelsLinted;

  ErrorOr<KernelModel> Model = parseKernelSource(KernelSource);
  if (!Model) {
    Report.Findings.push_back({LintPass::Structure, LintSeverity::Error, 0,
                               Model.errorMessage()});
    NumLintFindingsTotal += Report.Findings.size();
    return Report;
  }
  for (const ParseIssue &Issue : Model->Issues)
    Report.Findings.push_back(
        {LintPass::Structure, LintSeverity::Error, Issue.Line, Issue.Message});

  LintContext Ctx{Plan, *Model, Options, Report.Findings, censusDefs(*Model),
                  {}};
  Ctx.Ambient = buildAmbient(*Model, Plan.contraction(), Ctx.Defs);
  passBankConflict(Ctx);
  passCoalescing(Ctx);
  passBoundsCheck(Ctx);
  passResourceDecl(Ctx);
  if (ErrorOr<DataflowInfo> Flow = buildDataflow(*Model)) {
    Report.SourcePressure = Flow->pressure();
    RaceReport Races = proveRaces(Plan, *Model, *Flow);
    passRegisterPressure(Ctx, *Flow);
    passRedundantBarrier(Ctx, Races);
    passDeadStore(Ctx, *Flow);
    passSmemLifetime(Ctx, *Flow, Races);
    passRaceProver(Ctx, Races);
  }
  dedupeFindings(Report.Findings);
  NumLintFindingsTotal += Report.Findings.size();
  return Report;
}

//===----------------------------------------------------------------------===//
// predictTransactions — warp-exact replay of the parsed access pattern
//===----------------------------------------------------------------------===//

namespace {

/// Threads per warp for the coalescing replay.
constexpr int64_t ReplayWarpSize = 32;

/// Identical reduction to gpu::KernelSimulator's countSegments: addresses
/// to transaction-granularity segments, then distinct segments.
uint64_t countSegments(std::vector<int64_t> &Addrs, unsigned ElementSize,
                       unsigned TransactionBytes) {
  if (Addrs.empty())
    return 0;
  for (int64_t &Addr : Addrs)
    Addr = Addr * ElementSize / TransactionBytes;
  std::sort(Addrs.begin(), Addrs.end());
  uint64_t Segments = 1;
  for (size_t I = 1; I < Addrs.size(); ++I)
    Segments += Addrs[I] != Addrs[I - 1];
  return Segments;
}

bool bodyContainsStoreTo(const std::vector<Stmt> &Body,
                         const std::string &Array) {
  bool Found = false;
  forEachStmt(Body, [&](const Stmt &S) {
    if (S.Kind == StmtKind::ArrayStore && S.Name == Array)
      Found = true;
  });
  return Found;
}

/// A copy of a base environment that a replay loop reuses across its
/// iterations instead of copying the base per iteration. One iteration
/// binds \p Binds, then runs \p Steps in order; execScalar writes only a
/// scalar step's Name, and every other step only reads. reset() restores
/// the base value of each name an iteration writes, and drops a written
/// name the base lacks only where some step may read it before the
/// iteration writes it; elsewhere the write overwrites the stale value
/// before anything reads it. Each iteration thus sees a fresh copy.
class ScratchEnv {
public:
  ScratchEnv(const Env &Base, const std::vector<std::string> &Binds,
             const std::vector<const Stmt *> &Steps)
      : E(Base) {
    std::set<std::string> Written, Read;
    auto write = [&](const std::string &Name) {
      if (!Written.insert(Name).second)
        return;
      if (auto It = E.find(Name); It != E.end())
        Restore.emplace_back(&It->second, It->second);
      else if (Read.count(Name))
        Drop.push_back(Name);
    };
    for (const std::string &Name : Binds)
      write(Name);
    for (const Stmt *S : Steps) {
      std::vector<std::string> Names;
      collectVars(S->Value, Names);
      collectVars(S->Index, Names);
      if (S->Kind == StmtKind::CompoundMul || S->Kind == StmtKind::CompoundDiv)
        Names.push_back(S->Name);
      Read.insert(Names.begin(), Names.end());
      if (isScalarStmt(*S))
        write(S->Name);
    }
  }
  // Restore points into E: a copy would restore into the original.
  ScratchEnv(const ScratchEnv &) = delete;
  ScratchEnv &operator=(const ScratchEnv &) = delete;

  Env &reset() {
    for (auto &[Slot, Value] : Restore)
      *Slot = Value;
    for (const std::string &Name : Drop)
      E.erase(Name);
    return E;
  }

private:
  Env E;
  /// Base names an iteration writes: where their value lives in E (nodes
  /// never move) and the value to put back.
  std::vector<std::pair<int64_t *, int64_t>> Restore;
  std::vector<std::string> Drop;
};

struct Replay {
  const KernelModel &M;
  const LintOptions &Opts;
  int64_t NumThreads = 0, TBX = 0;
  std::vector<const Stmt *> ThreadStmts; ///< tid + thread decodes.
  TrafficPrediction Result;
  std::string Failure;

  bool fail(const std::string &Message) {
    if (Failure.empty())
      Failure = Message;
    return false;
  }

  bool mustExec(const Stmt &S, Env &E) {
    if (!execScalar(S, E))
      return fail("statement at line " + std::to_string(S.Line) +
                  " does not evaluate during replay");
    return true;
  }

  /// One cooperative staging loop: simulator round/warp partition over the
  /// flattened slice.
  bool replaySliceLoad(const Stmt &Loop, const Env &StepEnv) {
    std::optional<int64_t> SliceElems = evalExpr(Loop.LoopBound, StepEnv);
    if (!SliceElems)
      return fail("slice loop bound does not evaluate");
    uint64_t *Slot = bodyContainsStoreTo(Loop.Body, "s_A")
                         ? &Result.TransactionsA
                         : &Result.TransactionsB;
    std::vector<const Stmt *> Steps;
    for (const Stmt &S : Loop.Body)
      Steps.push_back(&S);
    ScratchEnv Scratch(StepEnv, {Loop.LoopVar}, Steps);
    std::vector<int64_t> Addrs;
    for (int64_t RoundBase = 0; RoundBase < *SliceElems;
         RoundBase += NumThreads) {
      int64_t RoundEnd = std::min(RoundBase + NumThreads, *SliceElems);
      for (int64_t WarpBase = RoundBase; WarpBase < RoundEnd;
           WarpBase += ReplayWarpSize) {
        int64_t WarpEnd = std::min(WarpBase + ReplayWarpSize, RoundEnd);
        Addrs.clear();
        for (int64_t Elem = WarpBase; Elem < WarpEnd; ++Elem) {
          Env &E = Scratch.reset();
          E[Loop.LoopVar] = Elem;
          for (const Stmt &S : Loop.Body) {
            if (isScalarStmt(S)) {
              if (!mustExec(S, E))
                return false;
              continue;
            }
            if (S.Kind != StmtKind::ArrayStore)
              continue;
            const Expr *Load = nullptr;
            bool Guard = true;
            if (S.Value.Kind == ExprKind::Ternary) {
              std::optional<int64_t> Cond = evalExpr(S.Value.Kids[0], E);
              if (!Cond)
                return fail("staging guard does not evaluate");
              Guard = *Cond != 0;
              if (S.Value.Kids[1].Kind == ExprKind::Index)
                Load = &S.Value.Kids[1];
            } else if (S.Value.Kind == ExprKind::Index) {
              Load = &S.Value;
            }
            if (Guard && Load) {
              std::optional<int64_t> Addr = evalExpr(Load->Kids[0], E);
              if (!Addr)
                return fail("global load address does not evaluate");
              Addrs.push_back(*Addr);
            }
          }
        }
        *Slot += countSegments(Addrs, Opts.ElementSize,
                               Opts.TransactionBytes);
      }
    }
    return true;
  }

  /// The guarded register-tile store: Rx outer, Ry inner, warps over tid.
  bool replayStore(const Stmt &RxLoop, const Env &BlockEnv) {
    std::optional<int64_t> RxBound = evalExpr(RxLoop.LoopBound, BlockEnv);
    if (!RxBound)
      return fail("store rx bound does not evaluate");
    std::vector<int64_t> Addrs;
    for (int64_t Rx = 0; Rx < *RxBound; ++Rx) {
      Env EnvX = BlockEnv;
      EnvX[RxLoop.LoopVar] = Rx;
      const Stmt *RyLoop = nullptr;
      for (const Stmt &S : RxLoop.Body) {
        if (isScalarStmt(S)) {
          if (!mustExec(S, EnvX))
            return false;
        } else if (S.Kind == StmtKind::Loop) {
          RyLoop = &S;
        }
      }
      if (!RyLoop)
        return fail("store loop nest has no inner register loop");
      std::optional<int64_t> RyBound = evalExpr(RyLoop->LoopBound, EnvX);
      if (!RyBound)
        return fail("store ry bound does not evaluate");
      for (int64_t Ry = 0; Ry < *RyBound; ++Ry) {
        Env EnvY = EnvX;
        EnvY[RyLoop->LoopVar] = Ry;
        // Split the ry body into thread-independent scalars (y_ decode),
        // per-thread scalars (gc_ definitions) and the guarded store.
        std::vector<const Stmt *> PerThread;
        const Stmt *Guard = nullptr;
        const Stmt *Store = nullptr;
        for (const Stmt &S : RyLoop->Body) {
          if (isScalarStmt(S)) {
            if (!execScalar(S, EnvY))
              PerThread.push_back(&S);
          } else if (S.Kind == StmtKind::If) {
            Guard = &S;
            for (const Stmt &Inner : S.Body)
              if (Inner.Kind == StmtKind::ArrayStore && Inner.Name == "g_C")
                Store = &Inner;
          } else if (S.Kind == StmtKind::ArrayStore && S.Name == "g_C") {
            Store = &S;
          }
        }
        if (!Store)
          return fail("store loop nest has no g_C store");
        std::vector<const Stmt *> Steps = ThreadStmts;
        Steps.insert(Steps.end(), PerThread.begin(), PerThread.end());
        ScratchEnv Scratch(EnvY,
                           {"threadIdx.x", "threadIdx.y", "get_local_id(0)",
                            "get_local_id(1)"},
                           Steps);
        for (int64_t WarpBase = 0; WarpBase < NumThreads;
             WarpBase += ReplayWarpSize) {
          int64_t WarpEnd = std::min(WarpBase + ReplayWarpSize, NumThreads);
          Addrs.clear();
          for (int64_t Tid = WarpBase; Tid < WarpEnd; ++Tid) {
            Env &E = Scratch.reset();
            E["threadIdx.x"] = Tid % TBX;
            E["threadIdx.y"] = Tid / TBX;
            E["get_local_id(0)"] = Tid % TBX;
            E["get_local_id(1)"] = Tid / TBX;
            for (const Stmt *S : Steps)
              if (!mustExec(*S, E))
                return false;
            bool GuardOk = true;
            if (Guard) {
              std::optional<int64_t> Cond = evalExpr(Guard->Value, E);
              if (!Cond)
                return fail("store guard does not evaluate");
              GuardOk = *Cond != 0;
            }
            if (!GuardOk)
              continue;
            std::optional<int64_t> Addr = evalExpr(Store->Index, E);
            if (!Addr)
              return fail("store address does not evaluate");
            Addrs.push_back(*Addr);
          }
          Result.TransactionsC +=
              countSegments(Addrs, Opts.ElementSize, Opts.TransactionBytes);
        }
      }
    }
    return true;
  }

  bool run() {
    // Function-scope setup: constants evaluate now, per-thread statements
    // (tid and the thread-index decodes) replay per simulated thread.
    Env Base;
    for (const auto &[Name, Value] : M.Defines)
      Base[Name] = Value;
    const Stmt *GridLoop = nullptr;
    for (const Stmt &S : M.Body) {
      if (S.Kind == StmtKind::Loop && !GridLoop &&
          bodyContainsStoreTo(S.Body, "g_C")) {
        GridLoop = &S;
        continue;
      }
      if (isScalarStmt(S) && !execScalar(S, Base))
        ThreadStmts.push_back(&S);
    }
    if (!GridLoop)
      return fail("no grid-stride loop found");
    auto lookup = [&](const char *Name) -> int64_t {
      auto It = Base.find(Name);
      return It == Base.end() ? 0 : It->second;
    };
    NumThreads = lookup("NTHREADS");
    TBX = lookup("TBX");
    std::optional<int64_t> TotalBlocks = evalExpr(GridLoop->LoopBound, Base);
    auto NumStepsIt = Base.find("numSteps");
    if (NumThreads <= 0 || TBX <= 0 || !TotalBlocks ||
        NumStepsIt == Base.end())
      return fail("kernel prologue does not define the launch shape");

    for (int64_t Block = 0; Block < *TotalBlocks; ++Block) {
      Env BlockEnv = Base;
      BlockEnv[GridLoop->LoopVar] = Block;
      BlockEnv["blockIdx.x"] = Block;
      BlockEnv["get_group_id(0)"] = Block;
      const Stmt *StepLoop = nullptr;
      const Stmt *StoreLoop = nullptr;
      for (const Stmt &S : GridLoop->Body) {
        if (isScalarStmt(S)) {
          if (!mustExec(S, BlockEnv))
            return false;
          continue;
        }
        if (S.Kind != StmtKind::Loop)
          continue;
        if (S.LoopVar == "step")
          StepLoop = &S;
        else if (bodyContainsStoreTo(S.Body, "g_C"))
          StoreLoop = &S;
        // Anything else (the register zero-init) touches no GMEM.
      }
      if (!StepLoop || !StoreLoop)
        return fail("grid body lacks the step loop or the store nest");

      for (int64_t Step = 0; Step < NumStepsIt->second; ++Step) {
        Env StepEnv = BlockEnv;
        StepEnv["step"] = Step;
        for (const Stmt &S : StepLoop->Body) {
          if (isScalarStmt(S)) {
            if (!mustExec(S, StepEnv))
              return false;
            continue;
          }
          if (S.Kind == StmtKind::Loop &&
              (bodyContainsStoreTo(S.Body, "s_A") ||
               bodyContainsStoreTo(S.Body, "s_B")))
            if (!replaySliceLoad(S, StepEnv))
              return false;
        }
      }
      if (!replayStore(*StoreLoop, BlockEnv))
        return false;
    }
    return true;
  }
};

} // namespace

ErrorOr<TrafficPrediction>
cogent::analysis::predictTransactions(const KernelPlan &Plan,
                                      const std::string &KernelSource,
                                      const LintOptions &Options) {
  ErrorOr<KernelModel> Model = parseKernelSource(KernelSource);
  if (!Model)
    return Model.takeError();
  if (Model->DoubleBuffer)
    return Error(ErrorCode::VerificationFailed,
                 "predictTransactions only replays single-buffer kernels "
                 "(the generation pipeline never emits double-buffered "
                 "sources)");
  // Bind the extent parameters exactly as the launcher would, then replay.
  for (char Name : Plan.contraction().allIndices())
    Model->Defines[std::string("N_") + Name] = Plan.contraction().extent(Name);
  Replay R{*Model, Options, 0, 0, {}, {}, {}};
  if (!R.run())
    return Error(ErrorCode::VerificationFailed,
                 "replay failed: " + R.Failure);
  return R.Result;
}

//===----------------------------------------------------------------------===//
// explainLint
//===----------------------------------------------------------------------===//

std::string cogent::analysis::explainLint(const KernelPlan &Plan,
                                          const std::string &KernelSource,
                                          const LintOptions &Options) {
  std::ostringstream OS;
  ErrorOr<KernelModel> Model = parseKernelSource(KernelSource);
  if (!Model) {
    OS << "KernelLint: source failed structural parse: "
       << Model.errorMessage() << "\n";
    return OS.str();
  }
  const KernelModel &M = *Model;
  OS << "KernelLint report for " << M.KernelName << " ("
     << (M.IsCuda ? "CUDA" : "OpenCL") << " dialect, " << M.ElementType
     << (M.DoubleBuffer ? ", double-buffered" : ", single-buffered")
     << ")\n";
  OS << "  defines:";
  for (const auto &[Name, Value] : M.Defines)
    OS << " " << Name << "=" << Value;
  OS << "\n  shared:";
  for (const Stmt &S : M.SharedDecls)
    OS << " " << S.Name << "[" << renderExpr(S.Value) << "]";
  OS << "  (plan stages " << Plan.sliceElements(Operand::A) << "/"
     << Plan.sliceElements(Operand::B) << " elements per step)\n";
  OS << "  barriers: " << M.BarrierCount << "\n";

  // Per-dimension staging strides, the quantities the BankConflict and
  // Coalescing passes check and a warp reads mod-32 banks through.
  for (Operand Op : {Operand::A, Operand::B}) {
    OS << "  slice " << ir::operandName(Op) << ":";
    for (const SliceDim &Dim : Plan.sliceDims(Op))
      OS << " " << Dim.Name << "(tile " << Dim.Tile << ", gmem stride "
         << Dim.GlobalStride << ", smem stride " << Dim.SmemStride
         << ", bank " << (Dim.SmemStride % 32) << ")";
    OS << "\n";
  }

  LintOptions Strict = Options;
  Strict.Mode = LintMode::Strict;
  LintReport Report = lintKernel(Plan, KernelSource, Strict);
  if (ErrorOr<TrafficPrediction> Traffic =
          predictTransactions(Plan, KernelSource, Options))
    OS << "  replayed transactions: A=" << Traffic->TransactionsA
       << " B=" << Traffic->TransactionsB << " C=" << Traffic->TransactionsC
       << " (total " << Traffic->total() << ")\n";
  if (Report.clean()) {
    OS << "  findings: none\n";
  } else {
    OS << "  findings (" << Report.Findings.size() << "):\n";
    for (const LintFinding &F : Report.Findings)
      OS << "    " << F.render() << "\n";
  }
  return OS.str();
}

//===- analysis/KernelModel.h - Structural model of emitted kernels -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A structural parser for the kernel sources CodeGen emits: a small
/// expression grammar (affine index arithmetic, comparisons, ternary
/// guards) plus a line-oriented statement-tree builder covering exactly
/// the shapes Algorithm 1 produces — #define tables, __shared__/__local
/// staging declarations, grid-stride loops, cooperative slice loads,
/// barriers and the guarded register-tile store. KernelLint's passes run
/// over this model instead of re-grepping raw text, so a single parser
/// change tracks a codegen change everywhere. Both dialect spellings
/// (CUDA and OpenCL) parse to the same tree.
///
/// The parser is deliberately *not* a C parser: anything outside the
/// emitted schema is a parse error, which the Structure lint pass turns
/// into a finding. That strictness is the point — a kernel the model
/// cannot explain is a kernel the pipeline should not ship.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_ANALYSIS_KERNELMODEL_H
#define COGENT_ANALYSIS_KERNELMODEL_H

#include "support/Diagnostics.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace cogent {
namespace ir {
class Contraction;
} // namespace ir
namespace analysis {

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Expression node kinds. Comparisons evaluate to 0/1; casts are erased
/// during parsing (every scalar in the emitted schema is integral).
enum class ExprKind {
  Num,     ///< Integer literal (bool literals fold to 0/1).
  Var,     ///< Identifier; dotted names (threadIdx.x) and zero-argument
           ///< builtin calls (get_local_id(0)) are kept whole.
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  And,     ///< Logical &&.
  Ternary, ///< Kids = {condition, then, else}.
  Index,   ///< Array element: Name = array, Kids = {index}.
};

/// One parsed expression; a small value-semantics tree.
struct Expr {
  ExprKind Kind = ExprKind::Num;
  int64_t Value = 0;       ///< ExprKind::Num payload.
  std::string Name;        ///< Var / Index array name.
  std::vector<Expr> Kids;  ///< Operands, in source order.

  bool isNum(int64_t V) const { return Kind == ExprKind::Num && Value == V; }
};

/// Variable bindings for evaluation; values are signed 64-bit like every
/// scalar the emitted kernels compute with.
using Env = std::unordered_map<std::string, int64_t>;

/// Evaluates \p E under \p Bindings. Returns std::nullopt when a variable
/// is unbound, an Index/unsupported node is reached, or a divisor is zero.
std::optional<int64_t> evalExpr(const Expr &E, const Env &Bindings);

/// Appends every variable name referenced by \p E (with repeats).
void collectVars(const Expr &E, std::vector<std::string> &Out);

/// Renders \p E back to a compact infix string for diagnostics.
std::string renderExpr(const Expr &E);

/// One additive term of a linearized affine index: Coeff * Coord, where
/// Coord is the (single) factor that did not evaluate under the ambient
/// environment — a per-thread coordinate like `i_a` or `g_c`. A term
/// whose factors all evaluated folds into IndexForm::Constant instead.
struct IndexTerm {
  std::string Coord;
  int64_t Coeff = 1;
};

/// An affine index expression in sum-of-terms form.
struct IndexForm {
  std::vector<IndexTerm> Terms;
  int64_t Constant = 0;
};

/// Flattens \p E into coefficient * coordinate terms, evaluating whatever
/// sub-expressions \p Ambient can resolve (stride variables, #define
/// constants). Fails when a term multiplies two unresolved coordinates or
/// uses non-affine operators — which for this kernel schema is itself a
/// lint-worthy fact.
std::optional<IndexForm> linearizeIndex(const Expr &E, const Env &Ambient);

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Statement kinds covering the emitted schema.
enum class StmtKind {
  Decl,        ///< [const] <type> name = expr;
  Assign,      ///< name = expr;
  CompoundMul, ///< name *= expr;
  CompoundDiv, ///< name /= expr;
  ArrayStore,  ///< name[expr] = expr; or name[expr] += expr;
  ArrayDecl,   ///< <type> name[expr]; optionally __shared__/__local.
  Barrier,     ///< __syncthreads(); or barrier(CLK_LOCAL_MEM_FENCE);
  Loop,        ///< for (init; cond; step) body
  If,          ///< if (cond) body
  Block,       ///< bare { ... } scope (double-buffer prologue)
};

/// One statement; loops/ifs/blocks own their bodies.
struct Stmt {
  StmtKind Kind = StmtKind::Decl;
  unsigned Line = 0;        ///< 1-based source line of the statement head.
  std::string Name;         ///< Decl/Assign/Compound target, array name.
  std::string Type;         ///< Declared type text ("int", "long long", ...).
  bool Shared = false;      ///< ArrayDecl carries __shared__/__local.
  bool Accumulate = false;  ///< ArrayStore used += rather than =.
  Expr Value;               ///< RHS; If condition; ArrayDecl size.
  Expr Index;               ///< ArrayStore index expression.
  std::string LoopVar;      ///< Loop induction variable.
  Expr LoopInit;            ///< Loop initial value.
  Expr LoopBound;           ///< Loop exclusive upper bound (var < bound).
  Expr LoopStep;            ///< Loop increment amount (1 for ++var).
  std::vector<Stmt> Body;   ///< Loop/If/Block children.
};

/// True for the scalar statements: Decl, Assign, CompoundMul, CompoundDiv.
bool isScalarStmt(const Stmt &S);

/// Executes one scalar statement into \p E. Returns false when \p S is not
/// a scalar statement or its RHS does not evaluate under \p E (a
/// per-thread value at this scope).
bool execScalar(const Stmt &S, Env &E);

/// Calls \p Fn on every statement of \p Body in pre-order, descending into
/// loop, guard and block bodies.
void forEachStmt(const std::vector<Stmt> &Body,
                 const std::function<void(const Stmt &)> &Fn);

/// Calls \p Fn on every Index node of \p E in pre-order.
void forEachIndexExpr(const Expr &E,
                      const std::function<void(const Expr &)> &Fn);

/// A parse problem the Structure pass reports verbatim.
struct ParseIssue {
  unsigned Line = 0;
  std::string Message;
};

//===----------------------------------------------------------------------===//
// KernelModel
//===----------------------------------------------------------------------===//

/// The parsed kernel: preprocessor table, declarations, and the function
/// body as a statement tree in emission order.
struct KernelModel {
  std::string KernelName;
  bool IsCuda = true;             ///< False for the OpenCL dialect.
  std::string ElementType;        ///< "double" or "float".
  bool DoubleBuffer = false;      ///< A `buf` scalar was declared.
  std::map<std::string, int64_t> Defines;  ///< TBX/TBY/NTHREADS/REG*/TBK.
  std::vector<std::string> ExtentParams;   ///< N_<index> kernel parameters.
  std::vector<Stmt> SharedDecls;           ///< __shared__/__local arrays.
  std::vector<Stmt> RegisterDecls;         ///< r_C / r_A / r_B arrays.
  std::vector<Stmt> Body;                  ///< Function body, top scope.
  unsigned BarrierCount = 0;
  std::vector<ParseIssue> Issues;          ///< Non-fatal oddities.

  /// The ArrayDecl for \p Name among Shared/Register decls, or nullptr.
  const Stmt *arrayDecl(const std::string &Name) const;
};

/// Parses one emitted kernel source (the KernelSource member of
/// GeneratedSource, not the host driver). Structural failures — unbalanced
/// braces, a missing signature, statements outside the schema — come back
/// as ErrorCode::VerificationFailed; recoverable oddities are collected in
/// KernelModel::Issues for the Structure pass.
ErrorOr<KernelModel> parseKernelSource(const std::string &KernelSource);

/// Where the scalars of a model body are written, per name: the one
/// definition census that constant folding, range analysis and the race
/// prover's single-assignment expansion all read.
struct DefCensus {
  /// Decl/Assign statements, in pre-order.
  std::unordered_map<std::string, std::vector<const Stmt *>> Sites;
  /// Number of `*=`/`/=` updates.
  std::unordered_map<std::string, unsigned> Updates;
  /// Loops binding the name as their induction variable, in pre-order.
  std::unordered_map<std::string, std::vector<const Stmt *>> Loops;

  /// The Decl/Assign of \p Name when it is the only one and no update
  /// follows; nullptr otherwise.
  const Stmt *singleDef(const std::string &Name) const;
};

/// Takes the census of \p M's body. The result points into \p M.
DefCensus censusDefs(const KernelModel &M);

/// The constants every analysis of \p M may fold: the #defines, the
/// N_<index> extents of \p TC, and, in program order, each scalar with
/// exactly one Decl/Assign site and no `*=`/`/=` update. A scalar assigned
/// at more than one site or updated in place (the double-buffer parity, a
/// step base declared in both the prologue and the steady state, a linear
/// cursor) takes a different value per iteration, so it stays symbolic;
/// per-thread scalars simply fail to evaluate.
Env buildAmbient(const KernelModel &M, const ir::Contraction &TC,
                 const DefCensus &Defs);

/// A closed integer interval [Lo, Hi].
struct ValueRange {
  int64_t Lo = 0, Hi = 0;
  int64_t size() const { return Hi - Lo + 1; }
};

/// Interval analysis over the scalars of one model: the value range of an
/// expression across every thread and iteration. What the ambient folds
/// is a point; thread builtins range over the block shape; a loop
/// variable joins [init.Lo, bound.Hi - 1] over every loop binding it; any
/// other scalar joins the ranges of all its Decl/Assign right-hand sides
/// (an in-place update voids it). std::nullopt means "unknown", never
/// "empty". BoundsCheck and the race prover both read it.
class RangeAnalysis {
public:
  RangeAnalysis(const KernelModel &M, const Env &Ambient,
                const DefCensus &Defs)
      : M(M), Ambient(Ambient), Defs(Defs) {}

  std::optional<ValueRange> of(const Expr &E);
  std::optional<ValueRange> ofName(const std::string &Name);

private:
  const KernelModel &M;
  const Env &Ambient;
  const DefCensus &Defs;
  std::unordered_map<std::string, std::optional<ValueRange>> Memo;
  std::vector<std::string> InFlight;
};

} // namespace analysis
} // namespace cogent

#endif // COGENT_ANALYSIS_KERNELMODEL_H

//===- analysis/KernelModel.cpp - Structural model of emitted kernels -----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "analysis/KernelModel.h"

#include "ir/Contraction.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <sstream>

using namespace cogent;
using namespace cogent::analysis;

//===----------------------------------------------------------------------===//
// Expression evaluation / linearization
//===----------------------------------------------------------------------===//

std::optional<int64_t> cogent::analysis::evalExpr(const Expr &E,
                                                  const Env &Bindings) {
  auto kid = [&](size_t I) { return evalExpr(E.Kids[I], Bindings); };
  switch (E.Kind) {
  case ExprKind::Num:
    return E.Value;
  case ExprKind::Var: {
    auto It = Bindings.find(E.Name);
    if (It == Bindings.end())
      return std::nullopt;
    return It->second;
  }
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul:
  case ExprKind::Div:
  case ExprKind::Mod:
  case ExprKind::Lt:
  case ExprKind::Le:
  case ExprKind::Gt:
  case ExprKind::Ge:
  case ExprKind::Eq:
  case ExprKind::Ne:
  case ExprKind::And: {
    std::optional<int64_t> L = kid(0), R = kid(1);
    if (!L || !R)
      return std::nullopt;
    switch (E.Kind) {
    case ExprKind::Add: return *L + *R;
    case ExprKind::Sub: return *L - *R;
    case ExprKind::Mul: return *L * *R;
    case ExprKind::Div: return *R == 0 ? std::nullopt
                                       : std::optional<int64_t>(*L / *R);
    case ExprKind::Mod: return *R == 0 ? std::nullopt
                                       : std::optional<int64_t>(*L % *R);
    case ExprKind::Lt:  return *L < *R ? 1 : 0;
    case ExprKind::Le:  return *L <= *R ? 1 : 0;
    case ExprKind::Gt:  return *L > *R ? 1 : 0;
    case ExprKind::Ge:  return *L >= *R ? 1 : 0;
    case ExprKind::Eq:  return *L == *R ? 1 : 0;
    case ExprKind::Ne:  return *L != *R ? 1 : 0;
    case ExprKind::And: return (*L != 0 && *R != 0) ? 1 : 0;
    default: return std::nullopt;
    }
  }
  case ExprKind::Ternary: {
    std::optional<int64_t> C = kid(0);
    if (!C)
      return std::nullopt;
    return *C != 0 ? kid(1) : kid(2);
  }
  case ExprKind::Index:
    return std::nullopt;
  }
  return std::nullopt;
}

void cogent::analysis::collectVars(const Expr &E,
                                   std::vector<std::string> &Out) {
  if (E.Kind == ExprKind::Var)
    Out.push_back(E.Name);
  for (const Expr &Kid : E.Kids)
    collectVars(Kid, Out);
}

std::string cogent::analysis::renderExpr(const Expr &E) {
  auto bin = [&](const char *Op) {
    return "(" + renderExpr(E.Kids[0]) + " " + Op + " " +
           renderExpr(E.Kids[1]) + ")";
  };
  switch (E.Kind) {
  case ExprKind::Num: return std::to_string(E.Value);
  case ExprKind::Var: return E.Name;
  case ExprKind::Add: return bin("+");
  case ExprKind::Sub: return bin("-");
  case ExprKind::Mul: return bin("*");
  case ExprKind::Div: return bin("/");
  case ExprKind::Mod: return bin("%");
  case ExprKind::Lt:  return bin("<");
  case ExprKind::Le:  return bin("<=");
  case ExprKind::Gt:  return bin(">");
  case ExprKind::Ge:  return bin(">=");
  case ExprKind::Eq:  return bin("==");
  case ExprKind::Ne:  return bin("!=");
  case ExprKind::And: return bin("&&");
  case ExprKind::Ternary:
    return "(" + renderExpr(E.Kids[0]) + " ? " + renderExpr(E.Kids[1]) +
           " : " + renderExpr(E.Kids[2]) + ")";
  case ExprKind::Index:
    return E.Name + "[" + renderExpr(E.Kids[0]) + "]";
  }
  return "?";
}

namespace {

void addTerm(IndexForm &F, const std::string &Coord, int64_t Coeff) {
  for (IndexTerm &T : F.Terms)
    if (T.Coord == Coord) {
      T.Coeff += Coeff;
      return;
    }
  F.Terms.push_back({Coord, Coeff});
}

bool linearizeInto(const Expr &E, const Env &Ambient, int64_t Scale,
                   IndexForm &F) {
  // Whatever the ambient environment fully resolves is a constant, no
  // matter its shape — this is what turns stride variables into numbers.
  if (std::optional<int64_t> V = evalExpr(E, Ambient)) {
    F.Constant += Scale * *V;
    return true;
  }
  switch (E.Kind) {
  case ExprKind::Var:
    addTerm(F, E.Name, Scale);
    return true;
  case ExprKind::Add:
    return linearizeInto(E.Kids[0], Ambient, Scale, F) &&
           linearizeInto(E.Kids[1], Ambient, Scale, F);
  case ExprKind::Sub:
    return linearizeInto(E.Kids[0], Ambient, Scale, F) &&
           linearizeInto(E.Kids[1], Ambient, -Scale, F);
  case ExprKind::Mul: {
    if (std::optional<int64_t> L = evalExpr(E.Kids[0], Ambient))
      return linearizeInto(E.Kids[1], Ambient, Scale * *L, F);
    if (std::optional<int64_t> R = evalExpr(E.Kids[1], Ambient))
      return linearizeInto(E.Kids[0], Ambient, Scale * *R, F);
    return false; // Two unresolved coordinates multiplied: not affine.
  }
  default:
    return false;
  }
}

} // namespace

std::optional<IndexForm>
cogent::analysis::linearizeIndex(const Expr &E, const Env &Ambient) {
  IndexForm F;
  if (!linearizeInto(E, Ambient, 1, F))
    return std::nullopt;
  F.Terms.erase(std::remove_if(F.Terms.begin(), F.Terms.end(),
                               [](const IndexTerm &T) { return T.Coeff == 0; }),
                F.Terms.end());
  return F;
}

//===----------------------------------------------------------------------===//
// Expression parser
//===----------------------------------------------------------------------===//

namespace {

/// Recursive-descent parser over one statement's expression text. The
/// grammar is the emitted subset of C: integer arithmetic with casts,
/// comparisons, `&&` conjunctions, one level of ?:, and array accesses.
class ExprParser {
public:
  ExprParser(std::string_view Text) : S(Text) {}

  std::optional<Expr> parse() {
    std::optional<Expr> E = parseTernary();
    skipSpace();
    if (E && Pos != S.size()) {
      Err = "trailing text '" + std::string(S.substr(Pos)) + "'";
      return std::nullopt;
    }
    return E;
  }

  std::optional<Expr> parseTernary() {
    std::optional<Expr> C = parseAnd();
    if (!C)
      return std::nullopt;
    skipSpace();
    if (!eat('?'))
      return C;
    std::optional<Expr> T = parseTernary();
    skipSpace();
    if (!T || !eat(':'))
      return fail("malformed ?: expression");
    std::optional<Expr> F = parseTernary();
    if (!F)
      return std::nullopt;
    Expr E;
    E.Kind = ExprKind::Ternary;
    E.Kids = {std::move(*C), std::move(*T), std::move(*F)};
    return E;
  }

  const std::string &error() const { return Err; }

private:
  std::string_view S;
  size_t Pos = 0;
  std::string Err;

  std::optional<Expr> fail(std::string Message) {
    if (Err.empty())
      Err = std::move(Message);
    return std::nullopt;
  }

  void skipSpace() {
    while (Pos < S.size() && std::isspace(static_cast<unsigned char>(S[Pos])))
      ++Pos;
  }

  bool eat(char C) {
    skipSpace();
    if (Pos < S.size() && S[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool eatWord(std::string_view W) {
    skipSpace();
    if (S.substr(Pos, W.size()) != W)
      return false;
    size_t After = Pos + W.size();
    if (After < S.size() &&
        (std::isalnum(static_cast<unsigned char>(S[After])) || S[After] == '_'))
      return false;
    Pos = After;
    return true;
  }

  std::optional<Expr> parseAnd() {
    std::optional<Expr> L = parseCompare();
    while (L) {
      skipSpace();
      if (S.substr(Pos, 2) != "&&")
        break;
      Pos += 2;
      std::optional<Expr> R = parseCompare();
      if (!R)
        return std::nullopt;
      Expr E;
      E.Kind = ExprKind::And;
      E.Kids = {std::move(*L), std::move(*R)};
      L = std::move(E);
    }
    return L;
  }

  std::optional<Expr> parseCompare() {
    std::optional<Expr> L = parseAdd();
    if (!L)
      return std::nullopt;
    skipSpace();
    ExprKind Kind;
    if (S.substr(Pos, 2) == "<=") { Kind = ExprKind::Le; Pos += 2; }
    else if (S.substr(Pos, 2) == ">=") { Kind = ExprKind::Ge; Pos += 2; }
    else if (S.substr(Pos, 2) == "==") { Kind = ExprKind::Eq; Pos += 2; }
    else if (S.substr(Pos, 2) == "!=") { Kind = ExprKind::Ne; Pos += 2; }
    else if (Pos < S.size() && S[Pos] == '<') { Kind = ExprKind::Lt; ++Pos; }
    else if (Pos < S.size() && S[Pos] == '>') { Kind = ExprKind::Gt; ++Pos; }
    else
      return L;
    std::optional<Expr> R = parseAdd();
    if (!R)
      return std::nullopt;
    Expr E;
    E.Kind = Kind;
    E.Kids = {std::move(*L), std::move(*R)};
    return E;
  }

  std::optional<Expr> parseAdd() {
    std::optional<Expr> L = parseMul();
    while (L) {
      skipSpace();
      if (Pos >= S.size() || (S[Pos] != '+' && S[Pos] != '-'))
        break;
      // Leave "+=" / "/=" style compounds to the statement layer.
      if (Pos + 1 < S.size() && S[Pos + 1] == '=')
        break;
      ExprKind Kind = S[Pos] == '+' ? ExprKind::Add : ExprKind::Sub;
      ++Pos;
      std::optional<Expr> R = parseMul();
      if (!R)
        return std::nullopt;
      Expr E;
      E.Kind = Kind;
      E.Kids = {std::move(*L), std::move(*R)};
      L = std::move(E);
    }
    return L;
  }

  std::optional<Expr> parseMul() {
    std::optional<Expr> L = parseUnary();
    while (L) {
      skipSpace();
      if (Pos >= S.size() ||
          (S[Pos] != '*' && S[Pos] != '/' && S[Pos] != '%'))
        break;
      if (Pos + 1 < S.size() && S[Pos + 1] == '=')
        break;
      ExprKind Kind = S[Pos] == '*'   ? ExprKind::Mul
                      : S[Pos] == '/' ? ExprKind::Div
                                      : ExprKind::Mod;
      ++Pos;
      std::optional<Expr> R = parseUnary();
      if (!R)
        return std::nullopt;
      Expr E;
      E.Kind = Kind;
      E.Kids = {std::move(*L), std::move(*R)};
      L = std::move(E);
    }
    return L;
  }

  std::optional<Expr> parseUnary() {
    skipSpace();
    if (eat('-')) {
      std::optional<Expr> K = parseUnary();
      if (!K)
        return std::nullopt;
      Expr E;
      E.Kind = ExprKind::Sub;
      Expr Zero;
      E.Kids = {Zero, std::move(*K)};
      return E;
    }
    return parsePrimary();
  }

  /// True when the parenthesized text starting after '(' is a C cast of
  /// the emitted kind — a pure type-keyword sequence.
  bool tryEatCast() {
    size_t Save = Pos;
    if (!eat('('))
      return false;
    bool SawType = false;
    while (eatWord("long") || eatWord("int") || eatWord("unsigned") ||
           eatWord("short") || eatWord("char") || eatWord("float") ||
           eatWord("double") || eatWord("const"))
      SawType = true;
    if (SawType && eat(')'))
      return true;
    Pos = Save;
    return false;
  }

  std::optional<Expr> parsePrimary() {
    skipSpace();
    if (Pos >= S.size())
      return fail("expected expression, got end of statement");
    if (tryEatCast())
      return parseUnary(); // Erase the cast: the value grammar is integral.
    if (eat('(')) {
      std::optional<Expr> E = parseTernary();
      if (!E || !eat(')'))
        return fail("unbalanced parentheses");
      return E;
    }
    char C = S[Pos];
    if (std::isdigit(static_cast<unsigned char>(C)))
      return parseNumber();
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_')
      return parseIdent();
    return fail(std::string("unexpected character '") + C + "'");
  }

  std::optional<Expr> parseNumber() {
    size_t Start = Pos;
    while (Pos < S.size() && std::isdigit(static_cast<unsigned char>(S[Pos])))
      ++Pos;
    Expr E;
    E.Value = std::strtoll(std::string(S.substr(Start, Pos - Start)).c_str(),
                           nullptr, 10);
    // Floating literals only appear as stored zeros (`0.0`, `0.0f`); keep
    // the integer part and discard fraction/suffix.
    if (Pos < S.size() && S[Pos] == '.') {
      ++Pos;
      while (Pos < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Pos])))
        ++Pos;
    }
    while (Pos < S.size() && (S[Pos] == 'f' || S[Pos] == 'F' ||
                              S[Pos] == 'l' || S[Pos] == 'L' ||
                              S[Pos] == 'u' || S[Pos] == 'U'))
      ++Pos;
    return E;
  }

  std::optional<Expr> parseIdent() {
    size_t Start = Pos;
    auto identChar = [&](char C) {
      return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
    };
    while (Pos < S.size() && identChar(S[Pos]))
      ++Pos;
    // Dotted builtins: threadIdx.x, blockIdx.x, gridDim.x.
    while (Pos + 1 < S.size() && S[Pos] == '.' && identChar(S[Pos + 1])) {
      ++Pos;
      while (Pos < S.size() && identChar(S[Pos]))
        ++Pos;
    }
    std::string Name(S.substr(Start, Pos - Start));
    if (Name == "true" || Name == "false") {
      Expr E;
      E.Value = Name == "true" ? 1 : 0;
      return E;
    }
    // Zero-arity-style builtin calls (get_local_id(0), get_group_id(1)):
    // kept whole as an opaque variable name.
    if (Pos < S.size() && S[Pos] == '(') {
      size_t Close = Pos + 1;
      while (Close < S.size() &&
             std::isdigit(static_cast<unsigned char>(S[Close])))
        ++Close;
      if (Close < S.size() && S[Close] == ')') {
        Name += std::string(S.substr(Pos, Close + 1 - Pos));
        Pos = Close + 1;
      } else {
        return fail("unsupported call expression '" + Name + "('");
      }
    }
    // Array element.
    if (eat('[')) {
      std::optional<Expr> Idx = parseTernary();
      if (!Idx || !eat(']'))
        return fail("unbalanced array subscript on '" + Name + "'");
      Expr E;
      E.Kind = ExprKind::Index;
      E.Name = std::move(Name);
      E.Kids = {std::move(*Idx)};
      return E;
    }
    Expr E;
    E.Kind = ExprKind::Var;
    E.Name = std::move(Name);
    return E;
  }
};

std::optional<Expr> parseExprText(std::string_view Text, std::string *Err) {
  ExprParser P(Text);
  std::optional<Expr> E = P.parse();
  if (!E && Err)
    *Err = P.error().empty() ? "unparseable expression" : P.error();
  return E;
}

//===----------------------------------------------------------------------===//
// Statement parser
//===----------------------------------------------------------------------===//

struct LineRec {
  std::string Text; ///< Trimmed, comment-stripped.
  unsigned Line = 0;
};

std::string trimCopy(std::string_view S) {
  size_t B = 0, E = S.size();
  while (B < E && std::isspace(static_cast<unsigned char>(S[B])))
    ++B;
  while (E > B && std::isspace(static_cast<unsigned char>(S[E - 1])))
    --E;
  return std::string(S.substr(B, E - B));
}

bool startsWith(const std::string &S, std::string_view Prefix) {
  return S.compare(0, Prefix.size(), Prefix) == 0;
}

bool isBarrierText(const std::string &S) {
  return S == "__syncthreads();" || S == "__syncthreads()" ||
         S == "barrier(CLK_LOCAL_MEM_FENCE);" ||
         S == "barrier(CLK_LOCAL_MEM_FENCE)";
}

/// The statement-tree builder: consumes the body lines of one kernel.
class StmtParser {
public:
  StmtParser(const std::vector<LineRec> &Lines, KernelModel &Model)
      : Lines(Lines), M(Model) {}

  /// Parses statements until a closing '}' (consumed) or end of input.
  /// \p TopLevel routes array declarations into the model's decl lists.
  std::vector<Stmt> parseBlock(bool TopLevel) {
    std::vector<Stmt> Out;
    while (I < Lines.size()) {
      const std::string &Text = Lines[I].Text;
      if (Text.empty()) {
        ++I;
        continue;
      }
      if (Text[0] == '}') {
        ++I;
        return Out;
      }
      parseOne(Out, TopLevel);
    }
    issue(Lines.empty() ? 0 : Lines.back().Line,
          "block not closed before end of source");
    HardFailure = true;
    return Out;
  }

  bool hardFailure() const { return HardFailure; }

private:
  const std::vector<LineRec> &Lines;
  KernelModel &M;
  size_t I = 0;
  bool HardFailure = false;

  void issue(unsigned Line, std::string Message) {
    M.Issues.push_back({Line, std::move(Message)});
  }

  Expr exprOrIssue(std::string_view Text, unsigned Line) {
    std::string Err;
    if (std::optional<Expr> E = parseExprText(Text, &Err))
      return *E;
    issue(Line, "bad expression '" + std::string(trimCopy(Text)) + "': " + Err);
    return Expr();
  }

  /// Parses exactly one statement (consuming one or more lines) into Out.
  void parseOne(std::vector<Stmt> &Out, bool TopLevel) {
    const LineRec &L = Lines[I];
    const std::string &Text = L.Text;

    if (isBarrierText(Text)) {
      Stmt S;
      S.Kind = StmtKind::Barrier;
      S.Line = L.Line;
      ++M.BarrierCount;
      Out.push_back(std::move(S));
      ++I;
      return;
    }
    if (Text == "{") {
      Stmt S;
      S.Kind = StmtKind::Block;
      S.Line = L.Line;
      ++I;
      S.Body = parseBlock(false);
      Out.push_back(std::move(S));
      return;
    }
    if (startsWith(Text, "for (") || startsWith(Text, "for(")) {
      parseFor(Out);
      return;
    }
    if (startsWith(Text, "if (") || startsWith(Text, "if(")) {
      parseIf(Out);
      return;
    }

    // Plain statement line; decode lines carry two ';'-terminated
    // micro-statements ("const int t_a = txq % 4; txq /= 4;").
    ++I;
    size_t Start = 0;
    while (Start < Text.size()) {
      size_t Semi = Text.find(';', Start);
      std::string Chunk = trimCopy(
          Text.substr(Start, Semi == std::string::npos ? std::string::npos
                                                       : Semi - Start));
      Start = Semi == std::string::npos ? Text.size() : Semi + 1;
      if (Chunk.empty())
        continue;
      parseMicro(Chunk, L.Line, Out, TopLevel);
    }
  }

  /// Splits "for (init; cond; step)" and parses body ({...} or the next
  /// single statement, which may itself be a braceless loop).
  void parseFor(std::vector<Stmt> &Out) {
    const LineRec &L = Lines[I];
    const std::string &Text = L.Text;
    size_t Open = Text.find('(');
    size_t Close = Text.rfind(')');
    if (Open == std::string::npos || Close == std::string::npos ||
        Close < Open) {
      issue(L.Line, "malformed for header");
      ++I;
      return;
    }
    std::string Header = Text.substr(Open + 1, Close - Open - 1);
    std::string Tail = trimCopy(Text.substr(Close + 1));

    Stmt S;
    S.Kind = StmtKind::Loop;
    S.Line = L.Line;

    // init; cond; step
    size_t Semi1 = Header.find(';');
    size_t Semi2 = Semi1 == std::string::npos ? std::string::npos
                                              : Header.find(';', Semi1 + 1);
    if (Semi2 == std::string::npos) {
      issue(L.Line, "malformed for header '" + Header + "'");
      ++I;
      return;
    }
    std::string Init = trimCopy(Header.substr(0, Semi1));
    std::string Cond = trimCopy(Header.substr(Semi1 + 1, Semi2 - Semi1 - 1));
    std::string Step = trimCopy(Header.substr(Semi2 + 1));

    // Init: "[type] var = expr".
    size_t Eq = Init.find('=');
    if (Eq == std::string::npos) {
      issue(L.Line, "for init without '='");
    } else {
      std::string Lhs = trimCopy(Init.substr(0, Eq));
      size_t LastSpace = Lhs.find_last_of(' ');
      S.LoopVar = LastSpace == std::string::npos ? Lhs
                                                 : Lhs.substr(LastSpace + 1);
      S.LoopInit = exprOrIssue(Init.substr(Eq + 1), L.Line);
    }
    // Cond: "var < bound".
    size_t Lt = Cond.find('<');
    if (Lt == std::string::npos)
      issue(L.Line, "for condition is not an upper bound: '" + Cond + "'");
    else
      S.LoopBound = exprOrIssue(Cond.substr(Lt + 1), L.Line);
    // Step: "++var" or "var += expr".
    if (startsWith(Step, "++") || Step.find("++") != std::string::npos) {
      S.LoopStep.Value = 1;
    } else {
      size_t Plus = Step.find("+=");
      if (Plus == std::string::npos)
        issue(L.Line, "unsupported for increment '" + Step + "'");
      else
        S.LoopStep = exprOrIssue(Step.substr(Plus + 2), L.Line);
    }

    ++I;
    if (!Tail.empty() && Tail[0] == '{') {
      S.Body = parseBlock(false);
    } else if (I < Lines.size()) {
      parseOne(S.Body, false); // Braceless: exactly one statement.
    }
    Out.push_back(std::move(S));
  }

  void parseIf(std::vector<Stmt> &Out) {
    const LineRec &L = Lines[I];
    const std::string &Text = L.Text;
    size_t Open = Text.find('(');
    // The matching ')' for the condition: track nesting.
    int Depth = 0;
    size_t Close = std::string::npos;
    for (size_t K = Open; K < Text.size(); ++K) {
      if (Text[K] == '(')
        ++Depth;
      else if (Text[K] == ')' && --Depth == 0) {
        Close = K;
        break;
      }
    }
    if (Open == std::string::npos || Close == std::string::npos) {
      issue(L.Line, "malformed if condition");
      ++I;
      return;
    }
    Stmt S;
    S.Kind = StmtKind::If;
    S.Line = L.Line;
    S.Value = exprOrIssue(Text.substr(Open + 1, Close - Open - 1), L.Line);
    std::string Tail = trimCopy(Text.substr(Close + 1));

    ++I;
    if (!Tail.empty() && Tail[0] == '{') {
      std::string Inner = trimCopy(Tail.substr(1));
      if (!Inner.empty() && Inner.back() == '}') {
        // Single-line "if (c) { stmt; }" body.
        Inner = trimCopy(Inner.substr(0, Inner.size() - 1));
        if (isBarrierText(Inner)) {
          Stmt B;
          B.Kind = StmtKind::Barrier;
          B.Line = L.Line;
          ++M.BarrierCount;
          S.Body.push_back(std::move(B));
        } else if (!Inner.empty()) {
          parseMicro(Inner, L.Line, S.Body, false);
        }
      } else {
        S.Body = parseBlock(false);
      }
    } else if (!Tail.empty()) {
      parseMicro(Tail, L.Line, S.Body, false);
    } else if (I < Lines.size()) {
      parseOne(S.Body, false);
    }
    Out.push_back(std::move(S));
  }

  /// One ';'-free simple statement.
  void parseMicro(const std::string &Chunk, unsigned Line,
                  std::vector<Stmt> &Out, bool TopLevel) {
    std::string Text = Chunk;
    bool Shared = false;
    for (std::string_view Prefix : {"__shared__ ", "__local "}) {
      if (startsWith(Text, Prefix)) {
        Shared = true;
        Text = trimCopy(Text.substr(Prefix.size()));
      }
    }
    bool Const = false;
    if (startsWith(Text, "const ")) {
      Const = true;
      Text = trimCopy(Text.substr(6));
    }
    (void)Const;

    // Leading declared type?
    std::string Type;
    for (std::string_view T :
         {"long long ", "unsigned long long ", "unsigned ", "long ", "int ",
          "double ", "float ", "bool "}) {
      if (startsWith(Text, T)) {
        Type = trimCopy(std::string(T));
        Text = trimCopy(Text.substr(T.size()));
        break;
      }
    }

    size_t Eq = Text.find('=');
    size_t Bracket = Text.find('[');

    if (!Type.empty() && Bracket != std::string::npos &&
        (Eq == std::string::npos || Bracket < Eq)) {
      // Array declaration: name[size].
      size_t CloseBr = Text.rfind(']');
      if (CloseBr == std::string::npos || CloseBr < Bracket) {
        issue(Line, "malformed array declaration '" + Chunk + "'");
        return;
      }
      Stmt S;
      S.Kind = StmtKind::ArrayDecl;
      S.Line = Line;
      S.Name = trimCopy(Text.substr(0, Bracket));
      S.Type = Type;
      S.Shared = Shared;
      S.Value =
          exprOrIssue(Text.substr(Bracket + 1, CloseBr - Bracket - 1), Line);
      if (TopLevel)
        (Shared ? M.SharedDecls : M.RegisterDecls).push_back(std::move(S));
      else if (Shared)
        M.SharedDecls.push_back(std::move(S));
      else
        Out.push_back(std::move(S));
      return;
    }

    if (Eq == std::string::npos) {
      issue(Line, "statement outside the emitted schema: '" + Chunk + "'");
      return;
    }

    // Compound operators.
    char Before = Eq > 0 ? Text[Eq - 1] : '\0';
    if (Before == '*' || Before == '/') {
      Stmt S;
      S.Kind = Before == '*' ? StmtKind::CompoundMul : StmtKind::CompoundDiv;
      S.Line = Line;
      S.Name = trimCopy(Text.substr(0, Eq - 1));
      S.Value = exprOrIssue(Text.substr(Eq + 1), Line);
      Out.push_back(std::move(S));
      return;
    }

    bool Accumulate = Before == '+';
    size_t LhsEnd = Accumulate ? Eq - 1 : Eq;
    std::string Lhs = trimCopy(Text.substr(0, LhsEnd));
    std::string Rhs = trimCopy(Text.substr(Eq + 1));

    if (Lhs.find('[') != std::string::npos) {
      size_t Br = Lhs.find('[');
      size_t CloseBr = Lhs.rfind(']');
      if (CloseBr == std::string::npos || CloseBr < Br) {
        issue(Line, "malformed array store '" + Chunk + "'");
        return;
      }
      Stmt S;
      S.Kind = StmtKind::ArrayStore;
      S.Line = Line;
      S.Name = trimCopy(Lhs.substr(0, Br));
      S.Accumulate = Accumulate;
      S.Index = exprOrIssue(Lhs.substr(Br + 1, CloseBr - Br - 1), Line);
      S.Value = exprOrIssue(Rhs, Line);
      Out.push_back(std::move(S));
      return;
    }

    if (Accumulate) {
      issue(Line, "scalar '+=' outside a loop header: '" + Chunk + "'");
      return;
    }
    Stmt S;
    S.Kind = Type.empty() ? StmtKind::Assign : StmtKind::Decl;
    S.Line = Line;
    S.Name = Lhs;
    S.Type = Type;
    S.Value = exprOrIssue(Rhs, Line);
    if (S.Name == "buf")
      M.DoubleBuffer = true;
    Out.push_back(std::move(S));
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Model helpers
//===----------------------------------------------------------------------===//

bool cogent::analysis::isScalarStmt(const Stmt &S) {
  return S.Kind == StmtKind::Decl || S.Kind == StmtKind::Assign ||
         S.Kind == StmtKind::CompoundMul || S.Kind == StmtKind::CompoundDiv;
}

bool cogent::analysis::execScalar(const Stmt &S, Env &E) {
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

void cogent::analysis::forEachStmt(
    const std::vector<Stmt> &Body,
    const std::function<void(const Stmt &)> &Fn) {
  for (const Stmt &S : Body) {
    Fn(S);
    if (!S.Body.empty())
      forEachStmt(S.Body, Fn);
  }
}

const Stmt *DefCensus::singleDef(const std::string &Name) const {
  auto It = Sites.find(Name);
  if (It == Sites.end() || It->second.size() != 1 || Updates.count(Name))
    return nullptr;
  return It->second.front();
}

DefCensus cogent::analysis::censusDefs(const KernelModel &M) {
  DefCensus D;
  forEachStmt(M.Body, [&](const Stmt &S) {
    if (S.Kind == StmtKind::Decl || S.Kind == StmtKind::Assign)
      D.Sites[S.Name].push_back(&S);
    else if (isScalarStmt(S))
      ++D.Updates[S.Name];
    else if (S.Kind == StmtKind::Loop)
      D.Loops[S.LoopVar].push_back(&S);
  });
  return D;
}

Env cogent::analysis::buildAmbient(const KernelModel &M,
                                   const ir::Contraction &TC,
                                   const DefCensus &Defs) {
  Env E;
  for (const auto &[Name, Value] : M.Defines)
    E[Name] = Value;
  for (char Name : TC.allIndices())
    E[std::string("N_") + Name] = TC.extent(Name);
  forEachStmt(M.Body, [&](const Stmt &S) {
    if (isScalarStmt(S) && Defs.singleDef(S.Name) == &S)
      execScalar(S, E);
  });
  return E;
}

void cogent::analysis::forEachIndexExpr(
    const Expr &E, const std::function<void(const Expr &)> &Fn) {
  if (E.Kind == ExprKind::Index)
    Fn(E);
  for (const Expr &Kid : E.Kids)
    forEachIndexExpr(Kid, Fn);
}

const Stmt *KernelModel::arrayDecl(const std::string &Name) const {
  for (const Stmt &S : SharedDecls)
    if (S.Name == Name)
      return &S;
  for (const Stmt &S : RegisterDecls)
    if (S.Name == Name)
      return &S;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Range analysis
//===----------------------------------------------------------------------===//

namespace {

ValueRange join(const ValueRange &A, const ValueRange &B) {
  return {std::min(A.Lo, B.Lo), std::max(A.Hi, B.Hi)};
}

} // namespace

std::optional<ValueRange> RangeAnalysis::of(const Expr &E) {
  if (std::optional<int64_t> V = evalExpr(E, Ambient))
    return ValueRange{*V, *V};
  switch (E.Kind) {
  case ExprKind::Var:
    return ofName(E.Name);
  case ExprKind::Add:
  case ExprKind::Sub:
  case ExprKind::Mul: {
    std::optional<ValueRange> L = of(E.Kids[0]), R = of(E.Kids[1]);
    if (!L || !R)
      return std::nullopt;
    if (E.Kind == ExprKind::Add)
      return ValueRange{L->Lo + R->Lo, L->Hi + R->Hi};
    if (E.Kind == ExprKind::Sub)
      return ValueRange{L->Lo - R->Hi, L->Hi - R->Lo};
    ValueRange P{INT64_MAX, INT64_MIN};
    for (int64_t A : {L->Lo, L->Hi})
      for (int64_t B : {R->Lo, R->Hi}) {
        int64_t AB = 0;
        if (__builtin_mul_overflow(A, B, &AB))
          return std::nullopt;
        P = {std::min(P.Lo, AB), std::max(P.Hi, AB)};
      }
    return P;
  }
  case ExprKind::Mod: {
    std::optional<int64_t> K = evalExpr(E.Kids[1], Ambient);
    if (!K || *K <= 0)
      return std::nullopt;
    return ValueRange{0, *K - 1};
  }
  case ExprKind::Div: {
    std::optional<int64_t> K = evalExpr(E.Kids[1], Ambient);
    if (!K || *K <= 0)
      return std::nullopt;
    std::optional<ValueRange> L = of(E.Kids[0]);
    if (!L || L->Lo < 0)
      return std::nullopt;
    return ValueRange{L->Lo / *K, L->Hi / *K};
  }
  case ExprKind::Ternary: {
    std::optional<ValueRange> A = of(E.Kids[1]);
    std::optional<ValueRange> B = of(E.Kids[2]);
    if (!A || !B)
      return std::nullopt;
    return join(*A, *B);
  }
  default:
    return std::nullopt;
  }
}

std::optional<ValueRange> RangeAnalysis::ofName(const std::string &Name) {
  if (auto It = Ambient.find(Name); It != Ambient.end())
    return ValueRange{It->second, It->second};
  auto blockDim = [&](const char *Define) -> std::optional<ValueRange> {
    auto It = Ambient.find(Define);
    if (It == Ambient.end())
      return std::nullopt;
    return ValueRange{0, It->second - 1};
  };
  if (Name == "threadIdx.x" || Name == "get_local_id(0)")
    return blockDim("TBX");
  if (Name == "threadIdx.y" || Name == "get_local_id(1)")
    return blockDim("TBY");
  if (Name == "threadIdx.z" || Name == "get_local_id(2)")
    return ValueRange{0, 0};
  if (M.DoubleBuffer && Name == "buf")
    return ValueRange{0, 1};
  if (auto It = Memo.find(Name); It != Memo.end())
    return It->second;
  if (std::find(InFlight.begin(), InFlight.end(), Name) != InFlight.end())
    return std::nullopt;
  InFlight.push_back(Name);
  // Join over every binding; one binding without a range voids the join.
  std::optional<ValueRange> Result;
  auto add = [&](std::optional<ValueRange> R) {
    if (R)
      Result = Result ? join(*Result, *R) : *R;
    else
      Result.reset();
    return R.has_value();
  };
  if (auto It = Defs.Loops.find(Name); It != Defs.Loops.end()) {
    for (const Stmt *L : It->second) {
      std::optional<ValueRange> Init = of(L->LoopInit);
      std::optional<ValueRange> Bound = of(L->LoopBound);
      std::optional<ValueRange> Trips;
      if (Init && Bound && Init->Lo < Bound->Hi)
        Trips = ValueRange{Init->Lo, Bound->Hi - 1};
      if (!add(Trips))
        break;
    }
  } else if (auto It = Defs.Sites.find(Name);
             It != Defs.Sites.end() && !Defs.Updates.count(Name)) {
    for (const Stmt *D : It->second)
      if (!add(of(D->Value)))
        break;
  }
  InFlight.pop_back();
  Memo[Name] = Result;
  return Result;
}

//===----------------------------------------------------------------------===//
// Top-level parse
//===----------------------------------------------------------------------===//

ErrorOr<KernelModel>
cogent::analysis::parseKernelSource(const std::string &KernelSource) {
  KernelModel M;

  // Split into trimmed, comment-stripped lines. The emitted schema has no
  // string literals, so cutting at the first "//" is safe.
  std::vector<LineRec> Lines;
  {
    std::istringstream In(KernelSource);
    std::string Raw;
    unsigned Number = 0;
    while (std::getline(In, Raw)) {
      ++Number;
      size_t Comment = Raw.find("//");
      if (Comment != std::string::npos)
        Raw = Raw.substr(0, Comment);
      Lines.push_back({trimCopy(Raw), Number});
    }
  }

  // Quick structural sanity: brace balance over the whole source. A
  // truncated emission fails here with a typed error rather than deep in
  // the statement walk.
  {
    long Depth = 0;
    for (const LineRec &L : Lines)
      for (char C : L.Text)
        Depth += C == '{' ? 1 : C == '}' ? -1 : 0;
    if (Depth != 0)
      return Error(ErrorCode::VerificationFailed,
                   "kernel source has unbalanced braces (depth " +
                       std::to_string(Depth) + " at end of text)");
  }

  // Header scan: defines, then the kernel signature (which may span
  // several lines up to its opening '{').
  size_t I = 0;
  bool SawSignature = false;
  for (; I < Lines.size(); ++I) {
    const std::string &Text = Lines[I].Text;
    if (Text.empty() || startsWith(Text, "#pragma") ||
        startsWith(Text, "#include") || startsWith(Text, "#undef"))
      continue;
    if (startsWith(Text, "#define ")) {
      std::istringstream Def(Text.substr(8));
      std::string Name;
      long long Value = 0;
      if (Def >> Name >> Value)
        M.Defines[Name] = Value;
      continue;
    }
    if (Text.find("void ") != std::string::npos &&
        (Text.find("__global__") != std::string::npos ||
         Text.find("__kernel") != std::string::npos)) {
      SawSignature = true;
      M.IsCuda = Text.find("__global__") != std::string::npos;
      std::string Signature = Text;
      while (Signature.find('{') == std::string::npos && I + 1 < Lines.size())
        Signature += " " + Lines[++I].Text;
      ++I; // Past the line holding '{'.

      size_t Paren = Signature.find('(');
      if (Paren == std::string::npos)
        return Error(ErrorCode::VerificationFailed,
                     "kernel signature has no parameter list");
      size_t NameEnd = Paren;
      size_t NameBegin = Signature.find_last_of(" *", NameEnd - 1);
      M.KernelName = Signature.substr(NameBegin + 1, NameEnd - NameBegin - 1);
      M.ElementType =
          Signature.find("double *") != std::string::npos ? "double" : "float";
      // Extent parameters, in declaration order.
      for (size_t K = Paren; K + 2 < Signature.size(); ++K) {
        if (Signature.compare(K, 2, "N_") == 0 &&
            !(std::isalnum(static_cast<unsigned char>(Signature[K - 1])) ||
              Signature[K - 1] == '_')) {
          size_t E = K;
          while (E < Signature.size() &&
                 (std::isalnum(static_cast<unsigned char>(Signature[E])) ||
                  Signature[E] == '_'))
            ++E;
          M.ExtentParams.push_back(Signature.substr(K, E - K));
          K = E;
        }
      }
      break;
    }
    // Anything else before the signature is outside the schema.
    M.Issues.push_back({Lines[I].Line,
                        "unrecognized text before kernel signature: '" +
                            Text + "'"});
  }
  if (!SawSignature)
    return Error(ErrorCode::VerificationFailed,
                 "no __global__/__kernel signature found");

  // Body parse. Trailing lines after the function's closing brace must be
  // preprocessor cleanup only.
  std::vector<LineRec> BodyLines(Lines.begin() + static_cast<long>(I),
                                 Lines.end());
  StmtParser Parser(BodyLines, M);
  M.Body = Parser.parseBlock(true);
  if (Parser.hardFailure())
    return Error(ErrorCode::VerificationFailed,
                 "kernel body ended before its closing brace");
  return M;
}

//===- ir/Contraction.cpp -------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ir/Contraction.h"

#include "support/Checked.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace cogent;
using namespace cogent::ir;

const char *cogent::ir::operandName(Operand Op) {
  switch (Op) {
  case Operand::A:
    return "A";
  case Operand::B:
    return "B";
  case Operand::C:
    return "C";
  }
  assert(false && "unknown operand");
  return "?";
}

static bool isValidIndexName(char C) { return C >= 'a' && C <= 'z'; }

static int slot(char C) {
  assert(isValidIndexName(C) && "index name out of range");
  return C - 'a';
}

/// Checks an operand's index string: non-empty, lowercase letters, no
/// repeats. Returns an empty string on success, else the error message.
static std::string checkOperandString(const std::string &Str,
                                      const char *Which) {
  if (Str.empty())
    return std::string("operand ") + Which + " has no indices";
  std::array<bool, 26> Seen{};
  for (char C : Str) {
    if (!isValidIndexName(C))
      return std::string("operand ") + Which +
             " contains invalid index name '" + C + "'";
    if (Seen[slot(C)])
      return std::string("operand ") + Which + " repeats index '" + C + "'";
    Seen[slot(C)] = true;
  }
  return std::string();
}

ErrorOr<Contraction>
Contraction::parse(const std::string &Spec,
                   const std::vector<std::pair<char, int64_t>> &Extents) {
  std::vector<std::string> Parts = split(trim(Spec), '-');
  if (Parts.size() != 3)
    return Error(ErrorCode::InvalidSpec,
                 "contraction spec must have exactly three '-'-separated "
                 "operands (C-A-B), got \"" +
                 Spec + "\"");

  for (unsigned I = 0; I < 3; ++I) {
    static const char *Names[] = {"C", "A", "B"};
    if (std::string Msg = checkOperandString(Parts[I], Names[I]); !Msg.empty())
      return Error(ErrorCode::InvalidSpec, Msg);
  }

  Contraction TC;
  TC.CIdx.assign(Parts[0].begin(), Parts[0].end());
  TC.AIdx.assign(Parts[1].begin(), Parts[1].end());
  TC.BIdx.assign(Parts[2].begin(), Parts[2].end());

  // Classify every index by membership and reject degenerate patterns.
  std::array<int, 26> InC{}, InA{}, InB{};
  for (char C : TC.CIdx)
    InC[slot(C)] = 1;
  for (char C : TC.AIdx)
    InA[slot(C)] = 1;
  for (char C : TC.BIdx)
    InB[slot(C)] = 1;

  for (int S = 0; S < 26; ++S) {
    int Count = InC[S] + InA[S] + InB[S];
    if (Count == 0)
      continue;
    char Name = static_cast<char>('a' + S);
    if (Count == 1)
      return Error(ErrorCode::InvalidSpec, std::string("index '") + Name +
                   "' appears in only one tensor");
    if (Count == 3)
      return Error(ErrorCode::InvalidSpec, std::string("index '") + Name +
                   "' appears in all three tensors (batch/Hadamard indices "
                   "are not supported, as in the paper)");
    TC.Used26[S] = true;
    if (InC[S] && InA[S])
      TC.Kind26[S] = IndexKind::ExternalA;
    else if (InC[S] && InB[S])
      TC.Kind26[S] = IndexKind::ExternalB;
    else
      TC.Kind26[S] = IndexKind::Internal;
  }

  // Every index of C must have been matched by an input.
  for (char C : TC.CIdx)
    if (!TC.Used26[slot(C)])
      return Error(ErrorCode::InvalidSpec, std::string("output index '") + C +
                   "' does not appear in any input");

  // Attach extents.
  for (const auto &[Name, Ext] : Extents) {
    if (!isValidIndexName(Name))
      return Error(ErrorCode::InvalidSpec,
                   std::string("extent given for invalid index name '") +
                   Name + "'");
    if (!TC.Used26[slot(Name)])
      return Error(ErrorCode::InvalidSpec,
                   std::string("extent given for index '") + Name +
                   "' which does not appear in the contraction");
    if (Ext <= 0)
      return Error(ErrorCode::InvalidSpec, std::string("extent of index '") +
                   Name + "' must be positive");
    TC.Extent26[slot(Name)] = Ext;
  }
  for (int S = 0; S < 26; ++S)
    if (TC.Used26[S] && TC.Extent26[S] == 0)
      return Error(ErrorCode::InvalidSpec,
                   std::string("no extent given for index '") +
                   static_cast<char>('a' + S) + "'");

  // Guard against element-count overflow with exact checked arithmetic:
  // every operand's extent product must fit in int64 offsets (with headroom
  // so downstream grid/stride math cannot wrap either).
  constexpr int64_t MaxElements = int64_t(1) << 61;
  for (Operand Op : {Operand::C, Operand::A, Operand::B}) {
    int64_t Product = 1;
    for (char Name : TC.indices(Op)) {
      if (!checkedMulInt64(Product, TC.Extent26[slot(Name)], &Product) ||
          Product > MaxElements)
        return Error(ErrorCode::ExtentOverflow,
                     std::string("operand ") + operandName(Op) +
                     " has more elements than a 64-bit offset can address");
    }
  }

  return TC;
}

ErrorOr<Contraction> Contraction::parseUniform(const std::string &Spec,
                                               int64_t Extent) {
  std::vector<std::pair<char, int64_t>> Extents;
  for (char C = 'a'; C <= 'z'; ++C)
    if (Spec.find(C) != std::string::npos)
      Extents.emplace_back(C, Extent);
  return parse(Spec, Extents);
}

const std::vector<char> &Contraction::indices(Operand Op) const {
  switch (Op) {
  case Operand::A:
    return AIdx;
  case Operand::B:
    return BIdx;
  case Operand::C:
    return CIdx;
  }
  assert(false && "unknown operand");
  return CIdx;
}

int64_t Contraction::extent(char Name) const {
  assert(Used26[slot(Name)] && "extent of unused index");
  return Extent26[slot(Name)];
}

IndexKind Contraction::kindOf(char Name) const {
  assert(Used26[slot(Name)] && "kind of unused index");
  return Kind26[slot(Name)];
}

Operand Contraction::reuseTensor(char Name) const {
  switch (kindOf(Name)) {
  case IndexKind::ExternalA:
    return Operand::B; // not indexed by it -> B reuses across it
  case IndexKind::ExternalB:
    return Operand::A;
  case IndexKind::Internal:
    return Operand::C;
  }
  assert(false && "unknown index kind");
  return Operand::C;
}

Operand Contraction::inputContaining(char Name) const {
  IndexKind Kind = kindOf(Name);
  assert(Kind != IndexKind::Internal &&
         "internal indices live in both inputs");
  return Kind == IndexKind::ExternalA ? Operand::A : Operand::B;
}

bool Contraction::contains(Operand Op, char Name) const {
  const std::vector<char> &Idx = indices(Op);
  return std::find(Idx.begin(), Idx.end(), Name) != Idx.end();
}

unsigned Contraction::positionIn(Operand Op, char Name) const {
  const std::vector<char> &Idx = indices(Op);
  auto It = std::find(Idx.begin(), Idx.end(), Name);
  assert(It != Idx.end() && "index not present in operand");
  return static_cast<unsigned>(It - Idx.begin());
}

int64_t Contraction::strideIn(Operand Op, char Name) const {
  const std::vector<char> &Idx = indices(Op);
  int64_t Stride = 1;
  for (char C : Idx) {
    if (C == Name)
      return Stride;
    Stride = checkedProductAssert(Stride, extent(C));
  }
  assert(false && "index not present in operand");
  return 0;
}

std::vector<char> Contraction::allIndices() const {
  std::vector<char> All = externalIndices();
  std::vector<char> Internal = internalIndices();
  All.insert(All.end(), Internal.begin(), Internal.end());
  return All;
}

std::vector<char> Contraction::internalIndices() const {
  std::vector<char> Result;
  for (char C : AIdx)
    if (isInternal(C))
      Result.push_back(C);
  return Result;
}

int64_t Contraction::numElements(Operand Op) const {
  // parse() bounds every operand's extent product, so overflow here would
  // be an invariant violation, not an input condition; detect it anyway
  // rather than silently wrapping.
  int64_t N = 1;
  for (char C : indices(Op))
    N = checkedProductAssert(N, extent(C));
  return N;
}

double Contraction::flopCount() const {
  double Flops = 2.0;
  for (char C : allIndices())
    Flops *= static_cast<double>(extent(C));
  return Flops;
}

std::string Contraction::toString() const {
  std::string Result(CIdx.begin(), CIdx.end());
  Result += '-';
  Result.append(AIdx.begin(), AIdx.end());
  Result += '-';
  Result.append(BIdx.begin(), BIdx.end());
  return Result;
}

std::string Contraction::toStringWithExtents() const {
  std::string Result = toString() + " (";
  bool First = true;
  for (char C : allIndices()) {
    if (!First)
      Result += ',';
    First = false;
    Result += C;
    Result += '=';
    Result += std::to_string(extent(C));
  }
  Result += ')';
  return Result;
}

//===- ir/Contraction.h - Tensor contraction IR ---------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The contraction intermediate representation: an ordered index list for
/// each of the three tensors C, A, B plus per-index extents, with the
/// classification machinery the paper's code generator is built on.
///
/// Conventions follow the paper:
///  - Layout is column-major, so the index at position 0 of a tensor is its
///    fastest varying index (FVI) and is contiguous in memory.
///  - Indices appearing in C are "external"; indices appearing in both A and
///    B but not C are "internal" (contraction/summation) indices.
///  - Every index appears in exactly two of the three tensors, so each index
///    is a reuse direction for exactly one tensor: the one not indexed by it.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_IR_CONTRACTION_H
#define COGENT_IR_CONTRACTION_H

#include "support/ErrorOr.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cogent {
namespace ir {

/// Identifies one of the three tensors participating in a contraction.
enum class Operand { A, B, C };

/// Returns "A", "B" or "C".
const char *operandName(Operand Op);

/// Classification of a loop index per the paper's §II key property.
enum class IndexKind {
  /// Appears in C and A; a reuse direction for B.
  ExternalA,
  /// Appears in C and B; a reuse direction for A.
  ExternalB,
  /// Appears in A and B; a reuse direction for C (the summation dimension).
  Internal,
};

/// A binary tensor contraction C[...] = A[...] * B[...] with Einstein
/// summation over the indices absent from C.
///
/// Instances are immutable after construction via parse(); all queries are
/// O(1) or O(#indices).
class Contraction {
public:
  /// Parses "C-A-B" index-string notation, e.g. "abcd-aebf-dfce" for
  /// C[a,b,c,d] = A[a,e,b,f] * B[d,f,c,e] (Eq. 1 of the paper).
  ///
  /// \p Extents supplies the representative extent of every index used; a
  /// missing or non-positive extent is an error, as are malformed strings
  /// (repeated index within a tensor, an index appearing in only one or in
  /// all three tensors, empty operands, or non-letter index names).
  static ErrorOr<Contraction> parse(const std::string &Spec,
                                    const std::vector<std::pair<char, int64_t>>
                                        &Extents);

  /// Convenience: parse with the same extent for every index.
  static ErrorOr<Contraction> parseUniform(const std::string &Spec,
                                           int64_t Extent);

  /// Ordered index list of one operand, FVI first.
  const std::vector<char> &indices(Operand Op) const;

  /// Number of indices (tensor order/rank) of one operand.
  unsigned rank(Operand Op) const {
    return static_cast<unsigned>(indices(Op).size());
  }

  /// Extent of index \p Name.
  int64_t extent(char Name) const;

  /// Classification of index \p Name.
  IndexKind kindOf(char Name) const;

  /// True for ExternalA / ExternalB kinds.
  bool isExternal(char Name) const { return kindOf(Name) != IndexKind::Internal; }
  bool isInternal(char Name) const { return kindOf(Name) == IndexKind::Internal; }

  /// The tensor for which index \p Name is a reuse direction (the one tensor
  /// that is not indexed by it).
  Operand reuseTensor(char Name) const;

  /// The input tensor (A or B) containing external index \p Name.
  Operand inputContaining(char Name) const;

  /// True if \p Op's index list contains \p Name.
  bool contains(Operand Op, char Name) const;

  /// Position of \p Name within \p Op (0 == FVI). Asserts on absence.
  unsigned positionIn(Operand Op, char Name) const;

  /// The fastest varying index (position 0) of \p Op.
  char fvi(Operand Op) const { return indices(Op).front(); }

  /// Column-major stride of index \p Name within tensor \p Op: the product
  /// of extents of all faster-varying indices.
  int64_t strideIn(Operand Op, char Name) const;

  /// All distinct indices: externals in C order followed by internals in A
  /// order.
  std::vector<char> allIndices() const;

  /// External indices in the order they appear in C (C's index list).
  const std::vector<char> &externalIndices() const { return CIdx; }

  /// Internal (contraction) indices in the order they appear in A.
  std::vector<char> internalIndices() const;

  /// Number of elements of one operand: product of its index extents.
  int64_t numElements(Operand Op) const;

  /// Useful-arithmetic count: 2 * prod(extent of every index) fused
  /// multiply-add work, the figure-of-merit denominator for GFLOPS.
  double flopCount() const;

  /// Renders back to "C-A-B" notation.
  std::string toString() const;

  /// Renders with extents, e.g. "abcd-aebf-dfce (a=16,b=16,...)".
  std::string toStringWithExtents() const;

private:
  Contraction() = default;

  std::vector<char> CIdx, AIdx, BIdx;
  std::array<int64_t, 26> Extent26{};
  std::array<IndexKind, 26> Kind26{};
  std::array<bool, 26> Used26{};
};

} // namespace ir
} // namespace cogent

#endif // COGENT_IR_CONTRACTION_H

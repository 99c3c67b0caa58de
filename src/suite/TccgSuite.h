//===- suite/TccgSuite.h - The 48-contraction TCCG benchmark ---------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TCCG tensor-contraction benchmark (Springer & Bientinesi) as used in
/// the paper's Figs. 4-8: 48 contractions in four families —
///   1-8   tensor-matrix multiplications from machine learning,
///   9-11  AO-basis to MO-basis two-electron integral transforms,
///   12-30 CCSD contractions (12 and 20-30 are 4D = 4D * 4D),
///   31-48 CCSD(T) triples contractions (31-39 form the SD2 set of
///         Figs. 6-8; SD2_1 is the paper's abcdef-gdab-efgc).
///
/// Index strings quoted in the paper are used verbatim; the remaining
/// entries reconstruct the published suite's structure (family sizes,
/// tensor arities, contraction-index counts and FVI placements) — see
/// DESIGN.md for the substitution note.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUITE_TCCGSUITE_H
#define COGENT_SUITE_TCCGSUITE_H

#include "ir/Contraction.h"

#include <string>
#include <vector>

namespace cogent {
namespace suite {

/// Benchmark family, matching the paper's grouping of Figs. 4/5.
enum class Category { MachineLearning, AoMoTransform, Ccsd, CcsdT };

const char *categoryName(Category Cat);

/// One suite entry: a contraction plus its representative problem size.
struct SuiteEntry {
  int Id = 0;
  std::string Name;
  std::string Spec;
  Category Cat = Category::MachineLearning;
  std::vector<std::pair<char, int64_t>> Extents;

  /// Parses at full representative size, propagating a typed error (with
  /// the entry named in the context chain) for an inconsistent entry.
  ErrorOr<ir::Contraction> tryContraction() const;

  /// tryContraction with every extent clamped to \p MaxExtent — small
  /// enough for functional simulation in tests and examples.
  ErrorOr<ir::Contraction> tryContractionScaled(int64_t MaxExtent) const;

  /// Convenience for the built-in suite (internally consistent by
  /// construction): asserts instead of propagating.
  ir::Contraction contraction() const;
  ir::Contraction contractionScaled(int64_t MaxExtent) const;
};

/// The full 48-entry suite, ordered by Id (1-based, matching the x-axis of
/// the paper's Figs. 4/5).
const std::vector<SuiteEntry> &tccgSuite();

/// Entries of one family.
std::vector<SuiteEntry> suiteByCategory(Category Cat);

/// Entry lookup by 1-based id; asserts on range.
const SuiteEntry &suiteEntry(int Id);

/// The SD2 subset (ids 31-39) used by the Tensor Comprehensions comparison
/// in Figs. 6-8.
std::vector<SuiteEntry> sd2Set();

} // namespace suite
} // namespace cogent

#endif // COGENT_SUITE_TCCGSUITE_H

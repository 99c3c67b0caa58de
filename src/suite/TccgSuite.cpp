//===- suite/TccgSuite.cpp -----------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "suite/TccgSuite.h"

#include <algorithm>
#include <cassert>

using namespace cogent;
using namespace cogent::suite;

const char *cogent::suite::categoryName(Category Cat) {
  switch (Cat) {
  case Category::MachineLearning:
    return "ML";
  case Category::AoMoTransform:
    return "AO-MO";
  case Category::Ccsd:
    return "CCSD";
  case Category::CcsdT:
    return "CCSD(T)";
  }
  assert(false && "unknown category");
  return "?";
}

ErrorOr<ir::Contraction> SuiteEntry::tryContraction() const {
  return std::move(ir::Contraction::parse(Spec, Extents))
      .withContext("suite entry " + std::to_string(Id) + " (" + Name + ")");
}

ErrorOr<ir::Contraction>
SuiteEntry::tryContractionScaled(int64_t MaxExtent) const {
  std::vector<std::pair<char, int64_t>> Scaled = Extents;
  for (auto &[Name, Extent] : Scaled)
    Extent = std::min(Extent, MaxExtent);
  return std::move(ir::Contraction::parse(Spec, Scaled))
      .withContext("suite entry " + std::to_string(Id) + " (" + Name +
                   ") scaled to " + std::to_string(MaxExtent));
}

ir::Contraction SuiteEntry::contraction() const {
  ErrorOr<ir::Contraction> TC = tryContraction();
  assert(TC.hasValue() && "built-in suite entry failed to parse");
  return *TC;
}

ir::Contraction SuiteEntry::contractionScaled(int64_t MaxExtent) const {
  ErrorOr<ir::Contraction> TC = tryContractionScaled(MaxExtent);
  assert(TC.hasValue() && "scaled built-in suite entry failed to parse");
  return *TC;
}

namespace {

/// Uniform extents for every index occurring in \p Spec.
std::vector<std::pair<char, int64_t>> uniform(const std::string &Spec,
                                              int64_t Extent) {
  std::vector<std::pair<char, int64_t>> Extents;
  for (char C = 'a'; C <= 'z'; ++C)
    if (Spec.find(C) != std::string::npos)
      Extents.emplace_back(C, Extent);
  return Extents;
}

std::vector<SuiteEntry> buildSuite() {
  std::vector<SuiteEntry> Suite;
  int Id = 1;
  auto add = [&](const std::string &Name, const std::string &Spec,
                 Category Cat, int64_t Extent) {
    SuiteEntry Entry;
    Entry.Id = Id++;
    Entry.Name = Name;
    Entry.Spec = Spec;
    Entry.Cat = Cat;
    Entry.Extents = uniform(Spec, Extent);
    Suite.push_back(std::move(Entry));
  };

  // --- 1-8: tensor-matrix multiplications from machine learning ---------
  // ML workloads operate on modest mode sizes (Tucker/MPS factors), which
  // is what makes kernel-launch and transpose overheads visible for TTGT.
  add("ml_1", "abc-acd-db", Category::MachineLearning, 96);
  add("ml_2", "abc-adc-bd", Category::MachineLearning, 96);
  add("ml_3", "abc-bda-dc", Category::MachineLearning, 96);
  add("ml_4", "abc-dca-bd", Category::MachineLearning, 96);
  add("ml_5", "ab-acd-dbc", Category::MachineLearning, 96);
  add("ml_6", "ab-cad-dcb", Category::MachineLearning, 96);
  add("ml_7", "abcd-aebd-ce", Category::MachineLearning, 64);
  add("ml_8", "abcd-aecd-be", Category::MachineLearning, 64);

  // --- 9-11: AO-basis -> MO-basis integral transforms -------------------
  add("aomo_1", "abcd-ebcd-ea", Category::AoMoTransform, 72);
  add("aomo_2", "abcd-aecd-eb", Category::AoMoTransform, 72);
  add("aomo_3", "abcd-abed-ec", Category::AoMoTransform, 72);

  // --- 12-30: CCSD -------------------------------------------------------
  // 12 is the paper's running example, Eq. 1 (4D = 4D * 4D).
  add("ccsd_1", "abcd-aebf-dfce", Category::Ccsd, 72);
  add("ccsd_2", "abcd-ea-ebcd", Category::Ccsd, 72);
  add("ccsd_3", "abcd-eb-aecd", Category::Ccsd, 72);
  add("ccsd_4", "abcd-ec-abed", Category::Ccsd, 72);
  add("ccsd_5", "abcd-ed-abce", Category::Ccsd, 72);
  add("ccsd_6", "abcd-ebad-ce", Category::Ccsd, 72);
  add("ccsd_7", "abcd-aebd-ec", Category::Ccsd, 72);
  add("ccsd_8", "abcd-deca-be", Category::Ccsd, 72);
  // 20-30: the 4D = 4D * 4D family with two contraction indices.
  add("ccsd_9", "abcd-aebf-fdec", Category::Ccsd, 72);
  add("ccsd_10", "abcd-eafd-fbec", Category::Ccsd, 72);
  add("ccsd_11", "abcd-eafb-fdec", Category::Ccsd, 72);
  add("ccsd_12", "abcd-aefb-fdce", Category::Ccsd, 72);
  add("ccsd_13", "abcd-feab-dfce", Category::Ccsd, 72);
  add("ccsd_14", "abcd-ebaf-dcfe", Category::Ccsd, 72);
  add("ccsd_15", "abcd-fbea-cdef", Category::Ccsd, 72);
  add("ccsd_16", "abcd-bfae-dcef", Category::Ccsd, 72);
  add("ccsd_17", "abcd-afbe-cfde", Category::Ccsd, 72);
  add("ccsd_18", "abcd-aebf-cfde", Category::Ccsd, 72);
  add("ccsd_19", "abcd-befa-dcef", Category::Ccsd, 72);

  // --- 31-48: CCSD(T) triples (6D = 4D * 4D, one contraction index) -----
  // 31-39: the SD2 set; sd2_1 is quoted in the paper (Fig. 8 caption).
  add("sd2_1", "abcdef-gdab-efgc", Category::CcsdT, 16);
  add("sd2_2", "abcdef-gdac-efgb", Category::CcsdT, 16);
  add("sd2_3", "abcdef-gdbc-efga", Category::CcsdT, 16);
  add("sd2_4", "abcdef-geab-dfgc", Category::CcsdT, 16);
  add("sd2_5", "abcdef-geac-dfgb", Category::CcsdT, 16);
  add("sd2_6", "abcdef-gebc-dfga", Category::CcsdT, 16);
  add("sd2_7", "abcdef-gfab-degc", Category::CcsdT, 16);
  add("sd2_8", "abcdef-gfac-degb", Category::CcsdT, 16);
  add("sd2_9", "abcdef-gfbc-dega", Category::CcsdT, 16);
  // 40-48: the D1 set (contraction index in the slowest position).
  add("sd1_1", "abcdef-dabg-efcg", Category::CcsdT, 16);
  add("sd1_2", "abcdef-dacg-efbg", Category::CcsdT, 16);
  add("sd1_3", "abcdef-dbcg-efag", Category::CcsdT, 16);
  add("sd1_4", "abcdef-eabg-dfcg", Category::CcsdT, 16);
  add("sd1_5", "abcdef-eacg-dfbg", Category::CcsdT, 16);
  add("sd1_6", "abcdef-ebcg-dfag", Category::CcsdT, 16);
  add("sd1_7", "abcdef-fabg-decg", Category::CcsdT, 16);
  add("sd1_8", "abcdef-facg-debg", Category::CcsdT, 16);
  add("sd1_9", "abcdef-fbcg-deag", Category::CcsdT, 16);

  assert(Suite.size() == 48 && "the TCCG suite has 48 entries");
  return Suite;
}

} // namespace

const std::vector<SuiteEntry> &cogent::suite::tccgSuite() {
  static const std::vector<SuiteEntry> Suite = buildSuite();
  return Suite;
}

std::vector<SuiteEntry> cogent::suite::suiteByCategory(Category Cat) {
  std::vector<SuiteEntry> Result;
  for (const SuiteEntry &Entry : tccgSuite())
    if (Entry.Cat == Cat)
      Result.push_back(Entry);
  return Result;
}

const SuiteEntry &cogent::suite::suiteEntry(int Id) {
  const std::vector<SuiteEntry> &Suite = tccgSuite();
  assert(Id >= 1 && Id <= static_cast<int>(Suite.size()) &&
         "suite id out of range");
  return Suite[static_cast<size_t>(Id - 1)];
}

std::vector<SuiteEntry> cogent::suite::sd2Set() {
  std::vector<SuiteEntry> Result;
  for (const SuiteEntry &Entry : tccgSuite())
    if (Entry.Name.rfind("sd2_", 0) == 0)
      Result.push_back(Entry);
  return Result;
}

//===- tests/test_suite_data.cpp - Suite <-> data-file consistency ---------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Keeps data/tccg_suite.txt (the artifact-style human-readable listing of
/// the benchmark inputs) in lockstep with the built-in suite: the file must
/// be exactly the rendering of tccgSuite() below. If either side changes
/// without the other, this fails.
///
//===----------------------------------------------------------------------===//

#include "suite/TccgSuite.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace cogent;

namespace {

std::string findDataFile() {
  // ctest runs from build/tests; direct runs may start elsewhere.
  for (const char *Candidate :
       {"../../data/tccg_suite.txt", "data/tccg_suite.txt",
        "../data/tccg_suite.txt"}) {
    std::ifstream Probe(Candidate);
    if (Probe.good())
      return Candidate;
  }
  return std::string();
}

std::string padded(std::string Field, size_t Width) {
  if (Field.size() < Width)
    Field.resize(Width, ' ');
  return Field;
}

/// The built-in suite in the data/tccg_suite.txt format: a two-line
/// header, then "id name family spec x=E ..." per entry in aligned columns.
std::string renderSuiteListing() {
  std::string Text =
      "# TCCG benchmark suite as built into src/suite/TccgSuite.cpp\n"
      "# id  name     family   spec               extents\n";
  for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
    Text += padded(std::to_string(Entry.Id), 4) + padded(Entry.Name, 9) +
            padded(suite::categoryName(Entry.Cat), 9) +
            padded(Entry.Spec, 20);
    const char *Separator = "";
    for (const auto &[Name, Extent] : Entry.Extents) {
      Text += Separator + std::string(1, Name) + "=" + std::to_string(Extent);
      Separator = " ";
    }
    Text += "\n";
  }
  return Text;
}

TEST(SuiteData, FileMatchesBuiltInSuite) {
  std::string Path = findDataFile();
  if (Path.empty())
    GTEST_SKIP() << "data/tccg_suite.txt not found from the test directory";

  std::ifstream In(Path);
  std::ostringstream Text;
  Text << In.rdbuf();
  EXPECT_EQ(Text.str(), renderSuiteListing());
}

} // namespace

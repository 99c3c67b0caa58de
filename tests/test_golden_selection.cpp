//===- tests/test_golden_selection.cpp - The generator's choice is pinned -===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The verifier, lint and the shim harness prove each emitted kernel
/// *valid*; this test pins *which* kernel the model selects. It runs the
/// golden_selection tool (path injected via GOLDEN_SELECTION_PATH) and
/// diffs its table against the checked-in data/golden_selection.tsv row
/// by row: every TCCG entry x {P100, V100} x {fp64, fp32} at paper
/// extents must keep its config, fallback rung, modeled transactions,
/// emitted-source digest and strict lint verdict.
/// scripts/regen_golden_selection.sh rewrites the table when a change
/// means to move a row.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <vector>

namespace {

std::vector<std::string> splitLines(const std::string &Text) {
  std::vector<std::string> Lines;
  std::istringstream In(Text);
  for (std::string Line; std::getline(In, Line);)
    Lines.push_back(Line);
  return Lines;
}

} // namespace

TEST(GoldenSelection, EveryRowMatchesTheCheckedInTable) {
  std::ifstream File(GOLDEN_SELECTION_TSV);
  ASSERT_TRUE(File) << "cannot read " << GOLDEN_SELECTION_TSV;
  std::stringstream Golden;
  Golden << File.rdbuf();

  std::FILE *Pipe = popen(GOLDEN_SELECTION_PATH, "r");
  ASSERT_NE(Pipe, nullptr);
  std::string Fresh;
  char Buffer[4096];
  for (size_t Got; (Got = std::fread(Buffer, 1, sizeof(Buffer), Pipe)) > 0;)
    Fresh.append(Buffer, Got);
  int Status = pclose(Pipe);
  ASSERT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);

  std::vector<std::string> Want = splitLines(Golden.str());
  std::vector<std::string> Got = splitLines(Fresh);
  // Header + 48 entries x 2 devices x 2 precisions.
  EXPECT_EQ(Want.size(), 1u + 48 * 2 * 2);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I < Want.size(); ++I)
    EXPECT_EQ(Got[I], Want[I]) << "row " << I << " moved; if the change "
                               << "means it, run "
                               << "scripts/regen_golden_selection.sh";
}

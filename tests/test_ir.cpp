//===- tests/test_ir.cpp - Contraction IR unit tests ----------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "ir/Contraction.h"
#include "suite/TccgSuite.h"

#include <gtest/gtest.h>

using namespace cogent;
using ir::Contraction;
using ir::IndexKind;
using ir::Operand;

namespace {

Contraction eq1(int64_t Extent = 16) {
  ErrorOr<Contraction> TC =
      Contraction::parseUniform("abcd-aebf-dfce", Extent);
  EXPECT_TRUE(TC.hasValue());
  return *TC;
}

TEST(ContractionParse, Eq1Structure) {
  Contraction TC = eq1();
  EXPECT_EQ(TC.indices(Operand::C), (std::vector<char>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(TC.indices(Operand::A), (std::vector<char>{'a', 'e', 'b', 'f'}));
  EXPECT_EQ(TC.indices(Operand::B), (std::vector<char>{'d', 'f', 'c', 'e'}));
  EXPECT_EQ(TC.rank(Operand::C), 4u);
}

TEST(ContractionParse, Classification) {
  Contraction TC = eq1();
  EXPECT_EQ(TC.kindOf('a'), IndexKind::ExternalA);
  EXPECT_EQ(TC.kindOf('b'), IndexKind::ExternalA);
  EXPECT_EQ(TC.kindOf('c'), IndexKind::ExternalB);
  EXPECT_EQ(TC.kindOf('d'), IndexKind::ExternalB);
  EXPECT_EQ(TC.kindOf('e'), IndexKind::Internal);
  EXPECT_EQ(TC.kindOf('f'), IndexKind::Internal);
  EXPECT_TRUE(TC.isExternal('a'));
  EXPECT_TRUE(TC.isInternal('e'));
}

TEST(ContractionParse, ReuseProperty) {
  // The paper's key property: every index is a reuse direction for exactly
  // the tensor that does not contain it.
  Contraction TC = eq1();
  EXPECT_EQ(TC.reuseTensor('a'), Operand::B);
  EXPECT_EQ(TC.reuseTensor('c'), Operand::A);
  EXPECT_EQ(TC.reuseTensor('e'), Operand::C);
  for (char Name : TC.allIndices()) {
    Operand Reuse = TC.reuseTensor(Name);
    EXPECT_FALSE(TC.contains(Reuse, Name))
        << "reuse tensor must not contain the index";
  }
}

TEST(ContractionParse, InputContaining) {
  Contraction TC = eq1();
  EXPECT_EQ(TC.inputContaining('a'), Operand::A);
  EXPECT_EQ(TC.inputContaining('d'), Operand::B);
}

TEST(ContractionParse, PositionsAndFvi) {
  Contraction TC = eq1();
  EXPECT_EQ(TC.fvi(Operand::A), 'a');
  EXPECT_EQ(TC.fvi(Operand::B), 'd');
  EXPECT_EQ(TC.fvi(Operand::C), 'a');
  EXPECT_EQ(TC.positionIn(Operand::A, 'b'), 2u);
  EXPECT_EQ(TC.positionIn(Operand::B, 'e'), 3u);
}

TEST(ContractionParse, StridesColumnMajor) {
  ErrorOr<Contraction> TC = Contraction::parse(
      "abcd-aebf-dfce",
      {{'a', 2}, {'b', 3}, {'c', 5}, {'d', 7}, {'e', 11}, {'f', 13}});
  ASSERT_TRUE(TC.hasValue());
  // A is [a, e, b, f] with extents [2, 11, 3, 13].
  EXPECT_EQ(TC->strideIn(Operand::A, 'a'), 1);
  EXPECT_EQ(TC->strideIn(Operand::A, 'e'), 2);
  EXPECT_EQ(TC->strideIn(Operand::A, 'b'), 22);
  EXPECT_EQ(TC->strideIn(Operand::A, 'f'), 66);
  EXPECT_EQ(TC->strideIn(Operand::C, 'd'), 2 * 3 * 5);
}

TEST(ContractionParse, Counts) {
  ErrorOr<Contraction> TC = Contraction::parse(
      "abcd-aebf-dfce",
      {{'a', 2}, {'b', 3}, {'c', 5}, {'d', 7}, {'e', 11}, {'f', 13}});
  ASSERT_TRUE(TC.hasValue());
  EXPECT_EQ(TC->numElements(Operand::C), 2 * 3 * 5 * 7);
  EXPECT_EQ(TC->numElements(Operand::A), 2 * 11 * 3 * 13);
  EXPECT_DOUBLE_EQ(TC->flopCount(), 2.0 * 2 * 3 * 5 * 7 * 11 * 13);
}

TEST(ContractionParse, OrderedIndexLists) {
  Contraction TC = eq1();
  EXPECT_EQ(TC.externalIndices(), (std::vector<char>{'a', 'b', 'c', 'd'}));
  EXPECT_EQ(TC.internalIndices(), (std::vector<char>{'e', 'f'}));
  EXPECT_EQ(TC.allIndices(),
            (std::vector<char>{'a', 'b', 'c', 'd', 'e', 'f'}));
}

TEST(ContractionParse, ToString) {
  Contraction TC = eq1(4);
  EXPECT_EQ(TC.toString(), "abcd-aebf-dfce");
  EXPECT_EQ(TC.toStringWithExtents(),
            "abcd-aebf-dfce (a=4,b=4,c=4,d=4,e=4,f=4)");
}

TEST(ContractionParse, TrimsWhitespace) {
  ErrorOr<Contraction> TC = Contraction::parseUniform("  ij-ik-kj \n", 4);
  ASSERT_TRUE(TC.hasValue());
  EXPECT_EQ(TC->toString(), "ij-ik-kj");
}

// --- error paths ---------------------------------------------------------

TEST(ContractionParseErrors, WrongOperandCount) {
  EXPECT_FALSE(Contraction::parseUniform("ab-cd", 4).hasValue());
  EXPECT_FALSE(Contraction::parseUniform("ab-cd-ef-gh", 4).hasValue());
}

TEST(ContractionParseErrors, EmptyOperand) {
  EXPECT_FALSE(Contraction::parseUniform("-ab-ab", 4).hasValue());
  EXPECT_FALSE(Contraction::parseUniform("ab--ab", 4).hasValue());
}

TEST(ContractionParseErrors, RepeatedIndexWithinTensor) {
  EXPECT_FALSE(Contraction::parseUniform("aa-ab-b", 4).hasValue());
}

TEST(ContractionParseErrors, InvalidIndexName) {
  EXPECT_FALSE(Contraction::parseUniform("aB-ab-B", 4).hasValue());
  EXPECT_FALSE(Contraction::parseUniform("a1-a1-1", 4).hasValue());
}

TEST(ContractionParseErrors, IndexInOnlyOneTensor) {
  // 'c' appears only in A.
  ErrorOr<Contraction> TC = Contraction::parseUniform("ab-ac-b", 4);
  ASSERT_FALSE(TC.hasValue());
  EXPECT_NE(TC.errorMessage().find("only one tensor"), std::string::npos);
}

TEST(ContractionParseErrors, BatchIndexRejected) {
  // 'a' appears in all three tensors.
  ErrorOr<Contraction> TC = Contraction::parseUniform("ab-ak-akb", 4);
  ASSERT_FALSE(TC.hasValue());
  EXPECT_NE(TC.errorMessage().find("all three"), std::string::npos);
}

TEST(ContractionParseErrors, MissingExtent) {
  ErrorOr<Contraction> TC =
      Contraction::parse("ij-ik-kj", {{'i', 4}, {'j', 4}});
  ASSERT_FALSE(TC.hasValue());
  EXPECT_NE(TC.errorMessage().find("no extent"), std::string::npos);
}

TEST(ContractionParseErrors, NonPositiveExtent) {
  EXPECT_FALSE(
      Contraction::parse("ij-ik-kj", {{'i', 4}, {'j', 0}, {'k', 4}})
          .hasValue());
  EXPECT_FALSE(
      Contraction::parse("ij-ik-kj", {{'i', 4}, {'j', -2}, {'k', 4}})
          .hasValue());
}

TEST(ContractionParseErrors, OverflowingExtentProduct) {
  ErrorOr<Contraction> TC = Contraction::parse(
      "abcd-aebf-dfce", {{'a', 2000000000},
                         {'b', 2000000000},
                         {'c', 2000000000},
                         {'d', 2000000000},
                         {'e', 2},
                         {'f', 2}});
  ASSERT_FALSE(TC.hasValue());
  EXPECT_NE(TC.errorMessage().find("64-bit"), std::string::npos);
}

// --- parameterized sweep over the whole TCCG suite -----------------------

class SuiteParse : public ::testing::TestWithParam<int> {};

TEST_P(SuiteParse, EveryIndexInExactlyTwoTensors) {
  const suite::SuiteEntry &Entry = suite::suiteEntry(GetParam());
  Contraction TC = Entry.contraction();
  for (char Name : TC.allIndices()) {
    int Count = TC.contains(Operand::A, Name) + TC.contains(Operand::B, Name) +
                TC.contains(Operand::C, Name);
    EXPECT_EQ(Count, 2) << Entry.Spec << " index " << Name;
  }
  EXPECT_EQ(TC.toString(), Entry.Spec);
}

INSTANTIATE_TEST_SUITE_P(Tccg, SuiteParse, ::testing::Range(1, 49));

} // namespace

//===- tests/test_support.cpp - Support-library unit tests ----------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Checked.h"
#include "support/ErrorOr.h"
#include "support/Random.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

#include <limits>

using namespace cogent;

namespace {

TEST(StringUtils, SplitBasic) {
  std::vector<std::string> Pieces = split("abcd-aebf-dfce", '-');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "abcd");
  EXPECT_EQ(Pieces[1], "aebf");
  EXPECT_EQ(Pieces[2], "dfce");
}

TEST(StringUtils, SplitKeepsEmptyPieces) {
  std::vector<std::string> Pieces = split("a--b", '-');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[1], "");
}

TEST(StringUtils, SplitNoSeparator) {
  std::vector<std::string> Pieces = split("abc", '-');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "abc");
}

TEST(StringUtils, SplitEmptyString) {
  std::vector<std::string> Pieces = split("", '-');
  ASSERT_EQ(Pieces.size(), 1u);
  EXPECT_EQ(Pieces[0], "");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  abc \t\n"), "abc");
  EXPECT_EQ(trim("abc"), "abc");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(ErrorOr, HoldsValue) {
  ErrorOr<int> Result(42);
  ASSERT_TRUE(Result.hasValue());
  EXPECT_EQ(*Result, 42);
  EXPECT_TRUE(static_cast<bool>(Result));
}

TEST(ErrorOr, HoldsError) {
  ErrorOr<int> Result = Error("something broke");
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.errorMessage(), "something broke");
}

TEST(ErrorOr, MoveOnlyFriendly) {
  ErrorOr<std::unique_ptr<int>> Result(std::make_unique<int>(7));
  ASSERT_TRUE(Result.hasValue());
  EXPECT_EQ(**Result, 7);
}

TEST(Diagnostics, MessageOnlyErrorsAreUnclassified) {
  Error E("legacy failure");
  EXPECT_EQ(E.code(), ErrorCode::Unknown);
  EXPECT_EQ(E.render(), "legacy failure");
}

TEST(Diagnostics, CodeNames) {
  EXPECT_STREQ(errorCodeName(ErrorCode::InvalidSpec), "InvalidSpec");
  EXPECT_STREQ(errorCodeName(ErrorCode::ExtentOverflow), "ExtentOverflow");
  EXPECT_STREQ(errorCodeName(ErrorCode::ResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(errorCodeName(ErrorCode::BudgetExceeded), "BudgetExceeded");
  EXPECT_STREQ(errorCodeName(ErrorCode::NoValidConfig), "NoValidConfig");
  EXPECT_STREQ(errorCodeName(ErrorCode::Unknown), "Unknown");
}

TEST(Diagnostics, ContextChainsOutermostFirst) {
  Error E = Error(ErrorCode::InvalidSpec, "bad extent")
                .withContext("parsing entry 3")
                .withContext("loading file.txt");
  EXPECT_EQ(E.code(), ErrorCode::InvalidSpec);
  EXPECT_EQ(E.message(), "bad extent");
  ASSERT_EQ(E.context().size(), 2u);
  EXPECT_EQ(E.context()[0], "loading file.txt");
  EXPECT_EQ(E.context()[1], "parsing entry 3");
  EXPECT_EQ(E.render(), "loading file.txt: parsing entry 3: bad extent");
  EXPECT_EQ(E.renderWithCode(),
            "InvalidSpec: loading file.txt: parsing entry 3: bad extent");
}

TEST(Diagnostics, ErrorOrCarriesCodeAndContext) {
  ErrorOr<int> Result = Error(ErrorCode::NoValidConfig, "nothing survived");
  ASSERT_FALSE(Result.hasValue());
  EXPECT_EQ(Result.errorCode(), ErrorCode::NoValidConfig);

  ErrorOr<int> Wrapped = std::move(Result).withContext("generating eq1");
  ASSERT_FALSE(Wrapped.hasValue());
  EXPECT_EQ(Wrapped.errorCode(), ErrorCode::NoValidConfig);
  EXPECT_EQ(Wrapped.errorMessage(), "generating eq1: nothing survived");

  // withContext on a value is a no-op pass-through.
  ErrorOr<int> Ok = std::move(ErrorOr<int>(5)).withContext("unused");
  ASSERT_TRUE(Ok.hasValue());
  EXPECT_EQ(*Ok, 5);
}

TEST(Diagnostics, MapTransformsValuesAndPassesErrors) {
  ErrorOr<int> Doubled =
      std::move(ErrorOr<int>(21)).map([](int V) { return V * 2; });
  ASSERT_TRUE(Doubled.hasValue());
  EXPECT_EQ(*Doubled, 42);

  ErrorOr<std::string> Failed =
      std::move(ErrorOr<int>(Error(ErrorCode::BudgetExceeded, "cap")))
          .map([](int V) { return std::to_string(V); });
  ASSERT_FALSE(Failed.hasValue());
  EXPECT_EQ(Failed.errorCode(), ErrorCode::BudgetExceeded);
}

TEST(Diagnostics, TakeErrorRewraps) {
  ErrorOr<int> Source = Error(ErrorCode::ExtentOverflow, "wraps");
  ErrorOr<double> Rewrapped = Source.takeError().withContext("outer");
  ASSERT_FALSE(Rewrapped.hasValue());
  EXPECT_EQ(Rewrapped.errorCode(), ErrorCode::ExtentOverflow);
  EXPECT_EQ(Rewrapped.errorMessage(), "outer: wraps");
}

TEST(Checked, MulDetectsOverflow) {
  int64_t Out = 0;
  EXPECT_TRUE(checkedMulInt64(1 << 20, 1 << 20, &Out));
  EXPECT_EQ(Out, int64_t(1) << 40);
  EXPECT_TRUE(checkedMulInt64(-7, 6, &Out));
  EXPECT_EQ(Out, -42);
  EXPECT_FALSE(checkedMulInt64(int64_t(1) << 32, int64_t(1) << 32, &Out));
  EXPECT_FALSE(checkedMulInt64(std::numeric_limits<int64_t>::max(), 2, &Out));
  EXPECT_TRUE(checkedMulInt64(std::numeric_limits<int64_t>::max(), 1, &Out));
}

TEST(Rng, DeterministicBySeed) {
  Rng GenA(123), GenB(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(GenA.uniformInt(0, 1000), GenB.uniformInt(0, 1000));
}

TEST(Rng, UniformIntInRange) {
  Rng Generator(7);
  for (int I = 0; I < 1000; ++I) {
    int64_t Value = Generator.uniformInt(-3, 9);
    EXPECT_GE(Value, -3);
    EXPECT_LE(Value, 9);
  }
}

TEST(Rng, UniformRealInRange) {
  Rng Generator(7);
  for (int I = 0; I < 1000; ++I) {
    double Value = Generator.uniformReal(-1.0, 1.0);
    EXPECT_GE(Value, -1.0);
    EXPECT_LT(Value, 1.0);
  }
}

TEST(Rng, FlipProbabilityRoughlyHolds) {
  Rng Generator(99);
  int Heads = 0;
  for (int I = 0; I < 10000; ++I)
    Heads += Generator.flip(0.25);
  EXPECT_NEAR(Heads / 10000.0, 0.25, 0.03);
}

} // namespace

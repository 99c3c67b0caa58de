//===- tests/test_transpose.cpp - Permutation library tests ---------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "transpose/Permute.h"
#include "transpose/TransposeModel.h"

#include "gpu/DeviceSpec.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <numeric>

using namespace cogent;
using tensor::Tensor;
using namespace cogent::transpose;

namespace {

TEST(Permutation, Validation) {
  EXPECT_TRUE(isValidPermutation({0, 1, 2}, 3));
  EXPECT_TRUE(isValidPermutation({2, 0, 1}, 3));
  EXPECT_FALSE(isValidPermutation({0, 1}, 3));
  EXPECT_FALSE(isValidPermutation({0, 0, 1}, 3));
  EXPECT_FALSE(isValidPermutation({0, 1, 3}, 3));
}

TEST(Permute, MatrixTranspose) {
  Tensor<double> Src({2, 3});
  Src.fillSequential();
  Tensor<double> Dst = permute(Src, {1, 0});
  EXPECT_EQ(Dst.shape(), (std::vector<int64_t>{3, 2}));
  for (int64_t I = 0; I < 2; ++I)
    for (int64_t J = 0; J < 3; ++J)
      EXPECT_DOUBLE_EQ(Dst({J, I}), Src({I, J}));
}

TEST(Permute, IdentityIsCopy) {
  Tensor<double> Src({3, 4, 5});
  Rng Generator(1);
  Src.fillRandom(Generator);
  Tensor<double> Dst = permute(Src, {0, 1, 2});
  EXPECT_EQ(tensor::maxAbsDifference(Src, Dst), 0.0);
}

TEST(Permute, Rank1) {
  Tensor<float> Src({7});
  Src.fillSequential();
  Tensor<float> Dst = permute(Src, {0});
  EXPECT_EQ(tensor::maxAbsDifference(Src, Dst), 0.0f);
}

/// Oracle: element-by-element permutation through multi-indices.
template <typename T>
Tensor<T> permuteNaive(const Tensor<T> &Src,
                       const std::vector<unsigned> &Perm) {
  std::vector<int64_t> DstShape(Perm.size());
  for (size_t I = 0; I < Perm.size(); ++I)
    DstShape[I] = Src.shape()[Perm[I]];
  Tensor<T> Dst(DstShape);
  std::vector<int64_t> DstIdx(Perm.size(), 0);
  if (Dst.numElements() == 0)
    return Dst;
  do {
    std::vector<int64_t> SrcIdx(Perm.size());
    for (size_t I = 0; I < Perm.size(); ++I)
      SrcIdx[Perm[I]] = DstIdx[I];
    Dst(DstIdx) = Src(SrcIdx);
  } while (tensor::advanceOdometer(DstIdx, DstShape));
  return Dst;
}

/// Property sweep: blocked permutation equals the naive oracle across random
/// shapes and permutations, including large-extent blocked paths.
class PermuteProperty : public ::testing::TestWithParam<int> {};

TEST_P(PermuteProperty, MatchesNaive) {
  Rng Generator(GetParam());
  unsigned Rank = static_cast<unsigned>(Generator.uniformInt(1, 5));
  std::vector<int64_t> Shape;
  for (unsigned I = 0; I < Rank; ++I)
    Shape.push_back(Generator.uniformInt(1, 9));
  // Occasionally make a dimension big enough to exercise 32-wide blocks.
  if (Generator.flip(0.4))
    Shape[static_cast<size_t>(Generator.uniformInt(0, Rank - 1))] = 40;
  std::vector<unsigned> Perm(Rank);
  std::iota(Perm.begin(), Perm.end(), 0);
  std::shuffle(Perm.begin(), Perm.end(), Generator.engine());

  Tensor<double> Src(Shape);
  Src.fillRandom(Generator);
  Tensor<double> Fast = permute(Src, Perm);
  Tensor<double> Slow = permuteNaive(Src, Perm);
  ASSERT_EQ(Fast.shape(), Slow.shape());
  EXPECT_EQ(tensor::maxAbsDifference(Fast, Slow), 0.0);
}

INSTANTIATE_TEST_SUITE_P(RandomShapes, PermuteProperty,
                         ::testing::Range(0, 40));

TEST(Permute, RoundTripIsIdentity) {
  Rng Generator(9);
  Tensor<double> Src({4, 6, 3, 5});
  Src.fillRandom(Generator);
  std::vector<unsigned> Perm = {2, 0, 3, 1};
  std::vector<unsigned> Inverse = {1, 3, 0, 2}; // Inverse[Perm[I]] == I
  Tensor<double> There = permute(Src, Perm);
  Tensor<double> Back = permute(There, Inverse);
  EXPECT_EQ(tensor::maxAbsDifference(Src, Back), 0.0);
}

// --- cost model ----------------------------------------------------------

TEST(TransposeModel, IdentityIsFastest) {
  gpu::DeviceSpec Device = gpu::makeV100();
  gpu::Calibration Calib = gpu::makeCalibration(Device);
  std::vector<int64_t> Shape = {64, 64, 64};
  TransposeEstimate Identity =
      estimateTranspose(Device, Calib, Shape, {0, 1, 2}, 8);
  TransposeEstimate Swapped =
      estimateTranspose(Device, Calib, Shape, {2, 1, 0}, 8);
  EXPECT_LT(Identity.TimeMs, Swapped.TimeMs);
  EXPECT_GT(Identity.Efficiency, Swapped.Efficiency);
}

TEST(TransposeModel, BytesMovedIsReadPlusWrite) {
  gpu::DeviceSpec Device = gpu::makeV100();
  gpu::Calibration Calib = gpu::makeCalibration(Device);
  TransposeEstimate Est =
      estimateTranspose(Device, Calib, {32, 32}, {1, 0}, 8);
  EXPECT_DOUBLE_EQ(Est.BytesMoved, 2.0 * 32 * 32 * 8);
}

TEST(TransposeModel, HigherRankIsLessEfficient) {
  // cuTT-style rank penalty: a 6D permutation achieves a lower bandwidth
  // fraction than a 2D transpose of the same volume.
  gpu::DeviceSpec Device = gpu::makeV100();
  gpu::Calibration Calib = gpu::makeCalibration(Device);
  TransposeEstimate Matrix =
      estimateTranspose(Device, Calib, {4096, 4096}, {1, 0}, 8);
  TransposeEstimate SixD = estimateTranspose(
      Device, Calib, {16, 16, 16, 16, 16, 16}, {5, 4, 3, 2, 1, 0}, 8);
  EXPECT_GT(Matrix.Efficiency, SixD.Efficiency);
}

TEST(TransposeModel, ShortFviHurtsCoalescing) {
  gpu::DeviceSpec Device = gpu::makeV100();
  gpu::Calibration Calib = gpu::makeCalibration(Device);
  TransposeEstimate Long =
      estimateTranspose(Device, Calib, {256, 256}, {1, 0}, 8);
  TransposeEstimate Short =
      estimateTranspose(Device, Calib, {2, 32768}, {1, 0}, 8);
  EXPECT_GT(Long.Efficiency, Short.Efficiency);
}

TEST(TransposeModel, PreservedPrefixKeepsEfficiency) {
  gpu::DeviceSpec Device = gpu::makeV100();
  gpu::Calibration Calib = gpu::makeCalibration(Device);
  // Leading dimension untouched: contiguous 64-element chunks move.
  TransposeEstimate Prefix =
      estimateTranspose(Device, Calib, {64, 32, 32}, {0, 2, 1}, 8);
  TransposeEstimate Scattered =
      estimateTranspose(Device, Calib, {64, 32, 32}, {2, 1, 0}, 8);
  EXPECT_GT(Prefix.Efficiency, Scattered.Efficiency);
}

} // namespace

//===- transpose/Permute.h - Tensor index permutation ----------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Index-permutation (generalized transpose) of dense tensors — the HPTT /
/// cuTT equivalent that the TTGT baseline depends on. A cache-blocked kernel
/// handles the common case where both the source and destination FVI tiles
/// fit a small 2D block; everything else falls back to odometer iteration.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_TRANSPOSE_PERMUTE_H
#define COGENT_TRANSPOSE_PERMUTE_H

#include "tensor/Tensor.h"

#include <cstdint>
#include <vector>

namespace cogent {
namespace transpose {

/// Validates a permutation vector: a bijection of [0, rank).
bool isValidPermutation(const std::vector<unsigned> &Perm, unsigned Rank);

namespace detail {
/// Generic odometer-driven permutation copy operating on raw buffers.
///
/// Dst dimension I takes its values from Src dimension Perm[I]:
///   Dst[i_0, ..., i_{r-1}] = Src[i_{Perm^-1(0)}, ...]  (stride formulation
/// below avoids materializing inverse indices).
template <typename ElementT>
void permuteRaw(ElementT *Dst, const std::vector<int64_t> &DstShape,
                const std::vector<int64_t> &DstStrides, const ElementT *Src,
                const std::vector<int64_t> &SrcStridesByDstDim) {
  std::vector<int64_t> Index(DstShape.size(), 0);
  int64_t DstOff = 0, SrcOff = 0;
  for (;;) {
    Dst[DstOff] = Src[SrcOff];
    // Advance the odometer, updating both offsets incrementally.
    size_t Dim = 0;
    for (; Dim < Index.size(); ++Dim) {
      DstOff += DstStrides[Dim];
      SrcOff += SrcStridesByDstDim[Dim];
      if (++Index[Dim] < DstShape[Dim])
        break;
      Index[Dim] = 0;
      DstOff -= DstStrides[Dim] * DstShape[Dim];
      SrcOff -= SrcStridesByDstDim[Dim] * DstShape[Dim];
    }
    if (Dim == Index.size())
      return;
  }
}
} // namespace detail

/// Permutes \p Src into a new tensor whose dimension I is Src dimension
/// \p Perm[I]. With Perm = {1, 0} on a matrix this is the ordinary
/// transpose. Uses 2D cache blocking over (dst FVI, src FVI) when those
/// dimensions differ, which is the stride-pathological pair.
template <typename ElementT>
tensor::Tensor<ElementT> permute(const tensor::Tensor<ElementT> &Src,
                                 const std::vector<unsigned> &Perm) {
  assert(isValidPermutation(Perm, Src.rank()) && "invalid permutation");
  std::vector<int64_t> DstShape(Perm.size());
  for (size_t I = 0; I < Perm.size(); ++I)
    DstShape[I] = Src.shape()[Perm[I]];
  tensor::Tensor<ElementT> Dst(DstShape);

  std::vector<int64_t> SrcStridesByDstDim(Perm.size());
  for (size_t I = 0; I < Perm.size(); ++I)
    SrcStridesByDstDim[I] = Src.strides()[Perm[I]];

  if (Src.rank() <= 1 || Perm[0] == 0) {
    // FVI preserved: the innermost copy is already contiguous in both.
    detail::permuteRaw(Dst.data(), DstShape, Dst.strides(), Src.data(),
                       SrcStridesByDstDim);
    return Dst;
  }

  // Cache-blocked path: tile the destination FVI (contiguous in Dst) against
  // the source FVI (contiguous in Src). All remaining dimensions iterate via
  // an odometer around the 2D block copies.
  constexpr int64_t BlockSize = 32;
  unsigned SrcFviDstDim = 0;
  for (size_t I = 0; I < Perm.size(); ++I)
    if (Perm[I] == 0)
      SrcFviDstDim = static_cast<unsigned>(I);

  int64_t DstFviExtent = DstShape[0];
  int64_t SrcFviExtent = DstShape[SrcFviDstDim];
  int64_t DstFviSrcStride = SrcStridesByDstDim[0];
  int64_t SrcFviDstStride = Dst.strides()[SrcFviDstDim];

  // Outer odometer over every destination dimension except 0 and
  // SrcFviDstDim.
  std::vector<unsigned> OuterDims;
  for (unsigned I = 1; I < Dst.rank(); ++I)
    if (I != SrcFviDstDim)
      OuterDims.push_back(I);

  std::vector<int64_t> OuterIndex(OuterDims.size(), 0);
  for (;;) {
    int64_t DstBase = 0, SrcBase = 0;
    for (size_t I = 0; I < OuterDims.size(); ++I) {
      DstBase += OuterIndex[I] * Dst.strides()[OuterDims[I]];
      SrcBase += OuterIndex[I] * SrcStridesByDstDim[OuterDims[I]];
    }
    for (int64_t JB = 0; JB < SrcFviExtent; JB += BlockSize) {
      int64_t JEnd = std::min(JB + BlockSize, SrcFviExtent);
      for (int64_t IB = 0; IB < DstFviExtent; IB += BlockSize) {
        int64_t IEnd = std::min(IB + BlockSize, DstFviExtent);
        for (int64_t J = JB; J < JEnd; ++J)
          for (int64_t I = IB; I < IEnd; ++I)
            Dst.data()[DstBase + I + J * SrcFviDstStride] =
                Src.data()[SrcBase + I * DstFviSrcStride + J];
      }
    }
    // Advance the outer odometer.
    size_t Dim = 0;
    for (; Dim < OuterIndex.size(); ++Dim) {
      if (++OuterIndex[Dim] < DstShape[OuterDims[Dim]])
        break;
      OuterIndex[Dim] = 0;
    }
    if (Dim == OuterIndex.size())
      return Dst;
  }
}

} // namespace transpose
} // namespace cogent

#endif // COGENT_TRANSPOSE_PERMUTE_H

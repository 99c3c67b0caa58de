//===- core/KernelConfig.h - Generated-kernel parameters (Table II) -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel parameters of the paper's Table II: ordered lists of indices
/// mapped to the thread-block X/Y dimensions, to the per-thread register
/// tile X/Y dimensions, and to the shared-memory step dimension (TBk), each
/// with a tile size. External indices not mapped anywhere get tile size 1
/// and iterate across the grid (the paper's Blk mapping); internal indices
/// not in TBk get tile 1 and iterate across sequential steps.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_CORE_KERNELCONFIG_H
#define COGENT_CORE_KERNELCONFIG_H

#include "ir/Contraction.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace cogent {
namespace core {

/// One index together with its tile size along that index.
struct IndexTile {
  char Name = '?';
  int64_t Tile = 1;

  friend bool operator==(const IndexTile &X, const IndexTile &Y) {
    return X.Name == Y.Name && X.Tile == Y.Tile;
  }
};

/// The five list products of a configuration (Table II's size_TBx,
/// size_TBy, size_REGx, size_REGy and size_TBk) and the per-block
/// footprint they determine. The enumerator prunes on these, taken from
/// per-partial products, without building a KernelConfig.
struct TileSizes {
  int64_t TBx = 1;
  int64_t TBy = 1;
  int64_t RegX = 1;
  int64_t RegY = 1;
  int64_t TBk = 1;

  int64_t threadsPerBlock() const { return TBx * TBy; }

  /// Shared-memory elements staged per step:
  /// TBx*REGx*TBk (for the X input) + TBy*REGy*TBk (for the Y input).
  int64_t smemElements() const { return (TBx * RegX + TBy * RegY) * TBk; }
  int64_t smemBytes(unsigned ElementSize) const {
    return smemElements() * ElementSize;
  }

  /// Estimated 32-bit registers per thread: the C accumulator tile, the two
  /// staging vectors, and a fixed addressing-arithmetic overhead.
  unsigned registersPerThread(unsigned ElementSize) const;
};

/// Everything Algorithm 3 reads of one configuration for one contraction:
/// the tile of each index name (slot Name - 'a'; 1 where unmapped), the
/// five list products, the grid size and the sequential step count.
struct TileTable {
  std::array<int64_t, 26> Tile;
  TileSizes Sizes;
  int64_t Blocks = 1;
  int64_t Steps = 1;
};

/// A complete mapping + tile-size choice for one contraction (Table II).
///
/// XInput identifies the input tensor that contains the output's FVI; its
/// external indices populate TBx/RegX, the other input's populate TBy/RegY,
/// exactly as in the paper's §III-B mapping scheme.
struct KernelConfig {
  ir::Operand XInput = ir::Operand::A;

  /// External indices mapped on the thread-block X dimension (l_TBx).
  /// The first entry is always the output tensor's FVI so stores coalesce.
  std::vector<IndexTile> TBx;
  /// External indices mapped on the thread-block Y dimension (l_TBy).
  std::vector<IndexTile> TBy;
  /// External indices register-tiled along X (REGx), drawn from XInput.
  std::vector<IndexTile> RegX;
  /// External indices register-tiled along Y (REGy), drawn from the other
  /// input.
  std::vector<IndexTile> RegY;
  /// Internal indices staged per step in shared memory (l_TBk).
  std::vector<IndexTile> TBk;

  /// The other input (the one providing TBy/RegY).
  ir::Operand yInput() const {
    return XInput == ir::Operand::A ? ir::Operand::B : ir::Operand::A;
  }

  int64_t tbxSize() const;
  int64_t tbySize() const;
  int64_t regXSize() const;
  int64_t regYSize() const;
  int64_t tbkSize() const;
  TileSizes sizes() const;
  int64_t threadsPerBlock() const { return tbxSize() * tbySize(); }

  /// Tile assigned to index \p Name across all five lists (1 if unmapped).
  int64_t tileOf(char Name) const;

  /// True when \p Name appears in any of the five lists.
  bool isMapped(char Name) const { return findTile(Name) != nullptr; }

  /// Grid size: product over external indices of ceil(N_i / T_i).
  int64_t numThreadBlocks(const ir::Contraction &TC) const;

  /// Sequential steps: product over internal indices of ceil(N_i / T_i).
  int64_t numSteps(const ir::Contraction &TC) const;

  /// TileSizes::smemElements of this config's lists.
  int64_t smemElements() const { return sizes().smemElements(); }
  int64_t smemBytes(unsigned ElementSize) const {
    return smemElements() * ElementSize;
  }

  /// TileSizes::registersPerThread of this config's lists.
  unsigned registersPerThread(unsigned ElementSize) const {
    return sizes().registersPerThread(ElementSize);
  }

  /// This config's tile table for \p TC: Blocks and Steps equal
  /// numThreadBlocks and numSteps. \pre validate(TC) returned "".
  TileTable tileTable(const ir::Contraction &TC) const;

  /// Returns a copy with every tile clamped to the extents of \p TC. The
  /// emitted CUDA handles problem sizes smaller than the representative one
  /// through bounds guards; clamping mirrors that when re-planning the same
  /// configuration at a smaller (e.g. validation) size.
  KernelConfig clampedTo(const ir::Contraction &TC) const;

  /// Structural validation against \p TC: each index mapped at most once, to
  /// a legal dimension for its kind and owning input, with tile in
  /// [1, extent], and TBx led by the output FVI. Returns an empty string if
  /// valid, else a diagnostic.
  std::string validate(const ir::Contraction &TC) const;

  /// Compact human-readable rendering, e.g.
  /// "TBx[a:16] TBy[c:8,d:2] RegX[b:4] RegY[] TBk[e:8]".
  std::string toString() const;

private:
  const IndexTile *findTile(char Name) const;
};

} // namespace core
} // namespace cogent

#endif // COGENT_CORE_KERNELCONFIG_H

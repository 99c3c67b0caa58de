//===- core/KernelConfig.cpp ------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/KernelConfig.h"

#include <algorithm>
#include <cassert>

using namespace cogent;
using namespace cogent::core;

static int64_t productOfTiles(const std::vector<IndexTile> &Tiles) {
  int64_t Product = 1;
  for (const IndexTile &T : Tiles)
    Product *= T.Tile;
  return Product;
}

int64_t KernelConfig::tbxSize() const { return productOfTiles(TBx); }
int64_t KernelConfig::tbySize() const { return productOfTiles(TBy); }
int64_t KernelConfig::regXSize() const { return productOfTiles(RegX); }
int64_t KernelConfig::regYSize() const { return productOfTiles(RegY); }
int64_t KernelConfig::tbkSize() const { return productOfTiles(TBk); }

TileSizes KernelConfig::sizes() const {
  return {tbxSize(), tbySize(), regXSize(), regYSize(), tbkSize()};
}

const IndexTile *KernelConfig::findTile(char Name) const {
  for (const std::vector<IndexTile> *List : {&TBx, &TBy, &RegX, &RegY, &TBk})
    for (const IndexTile &T : *List)
      if (T.Name == Name)
        return &T;
  return nullptr;
}

int64_t KernelConfig::tileOf(char Name) const {
  const IndexTile *T = findTile(Name);
  return T ? T->Tile : 1;
}

static int64_t ceilDiv(int64_t X, int64_t Y) { return (X + Y - 1) / Y; }

int64_t KernelConfig::numThreadBlocks(const ir::Contraction &TC) const {
  int64_t Blocks = 1;
  for (char Name : TC.externalIndices())
    Blocks *= ceilDiv(TC.extent(Name), tileOf(Name));
  return Blocks;
}

int64_t KernelConfig::numSteps(const ir::Contraction &TC) const {
  int64_t Steps = 1;
  for (char Name : TC.indices(ir::Operand::A))
    if (TC.isInternal(Name))
      Steps *= ceilDiv(TC.extent(Name), tileOf(Name));
  return Steps;
}

TileTable KernelConfig::tileTable(const ir::Contraction &TC) const {
  TileTable Table;
  Table.Tile.fill(1);
  // One pass over the lists fills the table and takes their products.
  auto fill = [&](const std::vector<IndexTile> &List) {
    int64_t Product = 1;
    for (const IndexTile &T : List) {
      Table.Tile[static_cast<size_t>(T.Name - 'a')] = T.Tile;
      Product *= T.Tile;
    }
    return Product;
  };
  Table.Sizes = {fill(TBx), fill(TBy), fill(RegX), fill(RegY), fill(TBk)};
  // numThreadBlocks and numSteps, read from the table.
  auto tileOf = [&](char Name) {
    return Table.Tile[static_cast<size_t>(Name - 'a')];
  };
  for (char Name : TC.externalIndices())
    Table.Blocks *= ceilDiv(TC.extent(Name), tileOf(Name));
  for (char Name : TC.indices(ir::Operand::A))
    if (TC.isInternal(Name))
      Table.Steps *= ceilDiv(TC.extent(Name), tileOf(Name));
  return Table;
}

unsigned TileSizes::registersPerThread(unsigned ElementSize) const {
  assert((ElementSize == 4 || ElementSize == 8) && "unsupported element size");
  unsigned RegsPerElement = ElementSize / 4;
  int64_t Values = RegX * RegY + RegX + RegY;
  // ~28 registers of index arithmetic / loop state in generated kernels.
  int64_t Total = Values * RegsPerElement + 28;
  return static_cast<unsigned>(std::min<int64_t>(Total, 512));
}

KernelConfig KernelConfig::clampedTo(const ir::Contraction &TC) const {
  KernelConfig Clamped = *this;
  for (std::vector<IndexTile> *List :
       {&Clamped.TBx, &Clamped.TBy, &Clamped.RegX, &Clamped.RegY,
        &Clamped.TBk})
    for (IndexTile &T : *List)
      T.Tile = std::min(T.Tile, TC.extent(T.Name));
  return Clamped;
}

std::string KernelConfig::validate(const ir::Contraction &TC) const {
  // Each index mapped at most once.
  std::array<int, 26> SeenCount{};
  for (const std::vector<IndexTile> *List : {&TBx, &TBy, &RegX, &RegY, &TBk})
    for (const IndexTile &T : *List) {
      if (T.Name < 'a' || T.Name > 'z')
        return "config maps invalid index name";
      ++SeenCount[T.Name - 'a'];
    }
  for (int S = 0; S < 26; ++S)
    if (SeenCount[S] > 1)
      return std::string("index '") + static_cast<char>('a' + S) +
             "' mapped to more than one dimension";

  // Tiles in range.
  for (const std::vector<IndexTile> *List : {&TBx, &TBy, &RegX, &RegY, &TBk})
    for (const IndexTile &T : *List) {
      if (T.Tile < 1)
        return std::string("index '") + T.Name + "' has tile < 1";
      if (T.Tile > TC.extent(T.Name))
        return std::string("index '") + T.Name + "' has tile > extent";
    }

  // Kind and ownership rules.
  ir::Operand YIn = yInput();
  auto checkExternalsFrom = [&](const std::vector<IndexTile> &List,
                                ir::Operand Input,
                                const char *Where) -> std::string {
    for (const IndexTile &T : List) {
      if (!TC.isExternal(T.Name))
        return std::string("internal index '") + T.Name + "' mapped on " +
               Where;
      if (TC.inputContaining(T.Name) != Input)
        return std::string("index '") + T.Name + "' on " + Where +
               " does not belong to the " +
               (Input == XInput ? "X" : "Y") + " input";
    }
    return std::string();
  };
  if (std::string Msg = checkExternalsFrom(TBx, XInput, "TBx"); !Msg.empty())
    return Msg;
  if (std::string Msg = checkExternalsFrom(RegX, XInput, "RegX"); !Msg.empty())
    return Msg;
  if (std::string Msg = checkExternalsFrom(TBy, YIn, "TBy"); !Msg.empty())
    return Msg;
  if (std::string Msg = checkExternalsFrom(RegY, YIn, "RegY"); !Msg.empty())
    return Msg;
  for (const IndexTile &T : TBk)
    if (!TC.isInternal(T.Name))
      return std::string("external index '") + T.Name + "' mapped on TBk";

  // The X input must contain the output FVI, which must lead TBx.
  char OutFvi = TC.fvi(ir::Operand::C);
  if (TC.inputContaining(OutFvi) != XInput)
    return "XInput does not contain the output tensor's FVI";
  if (TBx.empty() || TBx.front().Name != OutFvi)
    return "TBx must start with the output tensor's FVI";

  if (threadsPerBlock() < 1)
    return "empty thread block";
  return std::string();
}

std::string KernelConfig::toString() const {
  auto renderList = [](const char *Label,
                       const std::vector<IndexTile> &List) {
    std::string Out = std::string(Label) + "[";
    for (size_t I = 0; I < List.size(); ++I) {
      if (I != 0)
        Out += ',';
      Out += List[I].Name;
      Out += ':';
      Out += std::to_string(List[I].Tile);
    }
    Out += ']';
    return Out;
  };
  return renderList("TBx", TBx) + " " + renderList("TBy", TBy) + " " +
         renderList("RegX", RegX) + " " + renderList("RegY", RegY) + " " +
         renderList("TBk", TBk) + " X=" + ir::operandName(XInput);
}

//===- transpose/Permute.cpp -----------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "transpose/Permute.h"

#include <algorithm>

using namespace cogent;
using namespace cogent::transpose;

bool cogent::transpose::isValidPermutation(const std::vector<unsigned> &Perm,
                                           unsigned Rank) {
  if (Perm.size() != Rank)
    return false;
  std::vector<bool> Seen(Rank, false);
  for (unsigned P : Perm) {
    if (P >= Rank || Seen[P])
      return false;
    Seen[P] = true;
  }
  return true;
}

//===- support/StringUtils.cpp --------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/StringUtils.h"

#include <cctype>

using namespace cogent;

std::vector<std::string> cogent::split(const std::string &Text,
                                       char Separator) {
  std::vector<std::string> Pieces;
  std::string Current;
  for (char C : Text) {
    if (C == Separator) {
      Pieces.push_back(Current);
      Current.clear();
      continue;
    }
    Current.push_back(C);
  }
  Pieces.push_back(Current);
  return Pieces;
}

std::string cogent::trim(const std::string &Text) {
  size_t Begin = 0;
  size_t End = Text.size();
  while (Begin < End && std::isspace(static_cast<unsigned char>(Text[Begin])))
    ++Begin;
  while (End > Begin &&
         std::isspace(static_cast<unsigned char>(Text[End - 1])))
    --End;
  return Text.substr(Begin, End - Begin);
}

//===- support/StringUtils.h - Small string helpers -----------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String splitting and trimming helpers used by the contraction parser.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_STRINGUTILS_H
#define COGENT_SUPPORT_STRINGUTILS_H

#include <string>
#include <vector>

namespace cogent {

/// Splits \p Text on every occurrence of \p Separator. Empty pieces are kept,
/// so "a--b" split on '-' yields {"a", "", "b"}.
std::vector<std::string> split(const std::string &Text, char Separator);

/// Removes leading and trailing ASCII whitespace.
std::string trim(const std::string &Text);

} // namespace cogent

#endif // COGENT_SUPPORT_STRINGUTILS_H

//===- tools/json_lint.cpp - JSON well-formedness checker ------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Validates that each file named on the command line is well-formed JSON
/// (RFC 8259, via support::validateJson). scripts/run_all.sh uses this to
/// fail the smoke run when a --trace / --metrics / bench JSON artifact is
/// malformed, without assuming jq or python exist in the container.
///
/// Exit codes: 0 = all files valid, 1 = at least one file malformed or
/// unreadable, 2 = usage error.
///
//===----------------------------------------------------------------------===//

#include "support/JsonValue.h"

#include <cstdio>
#include <string>

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    std::fprintf(stderr, "usage: %s FILE...\n", Argv[0]);
    return 2;
  }
  int Failures = 0;
  for (int I = 1; I < Argc; ++I) {
    std::FILE *File = std::fopen(Argv[I], "rb");
    if (!File) {
      std::fprintf(stderr, "%s: cannot open\n", Argv[I]);
      ++Failures;
      continue;
    }
    std::string Text;
    char Buffer[1 << 16];
    size_t Read;
    while ((Read = std::fread(Buffer, 1, sizeof(Buffer), File)) > 0)
      Text.append(Buffer, Read);
    std::fclose(File);

    std::string Err;
    size_t Line = 0, Column = 0;
    if (cogent::support::validateJsonAt(Text, &Err, &Line, &Column)) {
      std::printf("%s: ok (%zu bytes)\n", Argv[I], Text.size());
    } else {
      std::fprintf(stderr, "%s:%zu:%zu: malformed JSON: %s\n", Argv[I], Line,
                   Column, Err.c_str());
      ++Failures;
    }
  }
  return Failures == 0 ? 0 : 1;
}

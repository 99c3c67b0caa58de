//===- tools/golden_selection.cpp - Print the golden selection table ------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints, as TSV on stdout, what the generator *chooses* for every TCCG
/// entry on P100 and V100 in fp64 and fp32 at the paper's extents with
/// default options: the selected KernelConfig, the fallback rung, the
/// modeled transactions, an FNV-1a digest of the emitted kernel source
/// and the strict lint verdict the post-emit gate left on it.
///
/// data/golden_selection.tsv is this program's output, checked in;
/// test_golden_selection diffs a fresh run against it, and
/// scripts/regen_golden_selection.sh rewrites it. A row may change only
/// in a change that says why.
///
/// Exit codes: 0 table printed, 1 a generation failed, 2 usage error.
///
//===----------------------------------------------------------------------===//

#include "core/Cogent.h"
#include "core/KernelRepository.h"
#include "gpu/DeviceSpec.h"
#include "suite/TccgSuite.h"

#include <cinttypes>
#include <cstdio>
#include <string>

using namespace cogent;

namespace {

/// "clean", or the gate's findings as severity:pass:line tokens.
std::string lintVerdict(const core::GenerationResult &Result) {
  std::string Out;
  for (const analysis::LintFinding &F : Result.LintFindings) {
    if (!Out.empty())
      Out += ',';
    Out += std::string(analysis::lintSeverityName(F.Severity)) + ":" +
           analysis::lintPassName(F.Pass) + ":" + std::to_string(F.Line);
  }
  return Out.empty() ? "clean" : Out;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 1) {
    std::fprintf(stderr, "usage: %s > data/golden_selection.tsv\n", Argv[0]);
    return 2;
  }
  std::printf("# id\tentry\tdevice\tprecision\tconfig\tfallback\t"
              "transactions\tsource_fnv1a\tlint\n");
  for (const gpu::DeviceSpec &Device : {gpu::makeP100(), gpu::makeV100()}) {
    core::Cogent Generator(Device);
    for (unsigned ElementSize : {8u, 4u}) {
      core::CogentOptions Options;
      Options.ElementSize = ElementSize;
      for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
        ErrorOr<core::GenerationResult> Result =
            Generator.generate(Entry.contraction(), Options);
        if (!Result) {
          std::fprintf(stderr, "error: %s on %s: %s\n", Entry.Name.c_str(),
                       Device.Name.c_str(),
                       Result.error().renderWithCode().c_str());
          return 1;
        }
        const core::GeneratedKernel &Best = Result->best();
        std::printf("%d\t%s\t%s\t%s\t%s\t%s\t%.17g\t%016" PRIx64 "\t%s\n",
                    Entry.Id, Entry.Name.c_str(), Device.Name.c_str(),
                    ElementSize == 8 ? "fp64" : "fp32",
                    Best.Config.toString().c_str(),
                    core::fallbackLevelName(Result->Fallback),
                    Best.Cost.total(),
                    core::fnv1a(Best.Source.KernelSource),
                    lintVerdict(*Result).c_str());
      }
    }
  }
  return 0;
}

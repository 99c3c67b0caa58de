//===- bench/BenchCommon.cpp ---------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "baselines/NwchemGen.h"
#include "baselines/Ttgt.h"
#include "core/Cogent.h"
#include "core/CostModel.h"
#include "core/KernelPlan.h"
#include "gpu/KernelSimulator.h"
#include "support/JsonValue.h"
#include "support/JsonWriter.h"
#include "support/Random.h"
#include "tensor/Reference.h"
#include "tensor/Tensor.h"

#include <cmath>
#include <cstdio>
#include <map>

using namespace cogent;
using namespace cogent::bench;

namespace {

/// Model-vs-measured traffic cross-check: re-plan the winning config at
/// extents clamped to Options.SimExtent, run the cost model and the exact
/// simulator on the same plan, and record both counts in \p Row.
void crossCheckTraffic(ComparisonRow &Row, const ir::Contraction &TC,
                       const core::KernelConfig &Config,
                       unsigned ElementSize,
                       const ComparisonOptions &Options) {
  std::vector<std::pair<char, int64_t>> Extents;
  for (char Name : TC.allIndices())
    Extents.emplace_back(Name,
                         std::min(TC.extent(Name), Options.SimExtent));
  ErrorOr<ir::Contraction> Small = ir::Contraction::parse(TC.toString(),
                                                          Extents);
  if (!Small)
    return;
  core::KernelConfig Clamped = Config.clampedTo(*Small);
  core::KernelPlan Plan(*Small, Clamped);
  Row.SimExtent = Options.SimExtent;
  Row.SimPredictedTransactions =
      core::estimateTransactions(Plan, ElementSize).total();

  Rng Generator(0xbe7c + static_cast<uint64_t>(Row.Id));
  tensor::Tensor<double> A =
      tensor::makeOperand<double>(*Small, ir::Operand::A);
  tensor::Tensor<double> B =
      tensor::makeOperand<double>(*Small, ir::Operand::B);
  A.fillRandom(Generator);
  B.fillRandom(Generator);
  tensor::Tensor<double> C =
      tensor::makeOperand<double>(*Small, ir::Operand::C);
  Row.SimMeasuredTransactions = static_cast<double>(
      gpu::simulateKernel(Plan, C, A, B).totalTransactions());
}

} // namespace

std::vector<ComparisonRow>
cogent::bench::runTccgComparison(const gpu::DeviceSpec &Device,
                                 unsigned ElementSize,
                                 const ComparisonOptions &Options) {
  gpu::Calibration Calib = gpu::makeCalibration(Device);
  core::Cogent Generator(Device);

  std::vector<ComparisonRow> Rows;
  for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
    ir::Contraction TC = Entry.contraction();

    ComparisonRow Row;
    Row.Id = Entry.Id;
    Row.Name = Entry.Name;
    Row.Spec = TC.toString();
    Row.Category = suite::categoryName(Entry.Cat);

    core::CogentOptions GenOptions;
    GenOptions.ElementSize = ElementSize;
    ErrorOr<core::GenerationResult> Result =
        Generator.generate(TC, GenOptions);
    if (Result) {
      Row.CogentGflops = Result->best().Predicted.Gflops;
      Row.CogentConfig = Result->best().Config.toString();
      Row.CogentElapsedMs = Result->ElapsedMs;
      Row.PredictedTransactions = Result->best().Cost.total();
      Row.VerifierRejections = Result->verifierRejections();
      Row.LintFindings = Result->LintFindings.size();
      Row.LintRejections = Result->lintRejections();
      Row.RegisterPressurePlan = Result->best().PlanPressure;
      Row.RegisterPressureSource = Result->best().SourcePressure;
      if (Options.SimTraffic)
        crossCheckTraffic(Row, TC, Result->best().Config, ElementSize,
                          Options);
    }
    Row.NwchemGflops =
        baselines::estimateNwchem(TC, Device, Calib, ElementSize).Gflops;
    Row.TalshGflops =
        baselines::estimateTtgt(TC, Device, Calib, ElementSize).Gflops;
    Rows.push_back(std::move(Row));
  }
  return Rows;
}

double cogent::bench::geomeanSpeedup(const std::vector<ComparisonRow> &Rows,
                                     bool UseNwchem) {
  double LnSum = 0.0;
  size_t Count = 0;
  for (const ComparisonRow &Row : Rows) {
    double Other = UseNwchem ? Row.NwchemGflops : Row.TalshGflops;
    if (Row.CogentGflops <= 0.0 || Other <= 0.0)
      continue;
    LnSum += std::log(Row.CogentGflops / Other);
    ++Count;
  }
  return Count == 0 ? 0.0 : std::exp(LnSum / static_cast<double>(Count));
}

void cogent::bench::printComparison(const std::vector<ComparisonRow> &Rows,
                                    const gpu::DeviceSpec &Device,
                                    const char *FigureLabel) {
  std::printf("%s — TCCG benchmark on %s (double precision, modeled)\n",
              FigureLabel, Device.Name.c_str());
  std::printf("%-3s %-9s %-20s %-8s %9s %9s %9s   %s\n", "#", "name", "spec",
              "family", "COGENT", "NWChem", "TAL_SH", "winning mapping");
  for (const ComparisonRow &Row : Rows)
    std::printf("%-3d %-9s %-20s %-8s %9.1f %9.1f %9.1f   %s\n", Row.Id,
                Row.Name.c_str(), Row.Spec.c_str(), Row.Category.c_str(),
                Row.CogentGflops, Row.NwchemGflops, Row.TalshGflops,
                Row.CogentConfig.c_str());

  // Per-category and overall speedup summaries (paper's in-text numbers).
  std::map<std::string, std::vector<ComparisonRow>> ByCategory;
  for (const ComparisonRow &Row : Rows)
    ByCategory[Row.Category].push_back(Row);

  std::printf("\nSpeedup of COGENT (geometric mean; max in parentheses)\n");
  auto maxSpeedup = [](const std::vector<ComparisonRow> &Set, bool Nw) {
    double Max = 0.0;
    for (const ComparisonRow &Row : Set) {
      double Other = Nw ? Row.NwchemGflops : Row.TalshGflops;
      if (Other > 0.0)
        Max = std::max(Max, Row.CogentGflops / Other);
    }
    return Max;
  };
  for (const auto &[Category, Set] : ByCategory)
    std::printf("  %-8s vs NWChem %5.2fx (%4.1fx)   vs TAL_SH %5.2fx "
                "(%4.1fx)\n",
                Category.c_str(), geomeanSpeedup(Set, true),
                maxSpeedup(Set, true), geomeanSpeedup(Set, false),
                maxSpeedup(Set, false));
  std::printf("  %-8s vs NWChem %5.2fx (%4.1fx)   vs TAL_SH %5.2fx "
              "(%4.1fx)\n",
              "ALL", geomeanSpeedup(Rows, true), maxSpeedup(Rows, true),
              geomeanSpeedup(Rows, false), maxSpeedup(Rows, false));

  double TotalGenMs = 0.0;
  for (const ComparisonRow &Row : Rows)
    TotalGenMs += Row.CogentElapsedMs;
  std::printf("\nCOGENT total code-generation time for the 48 kernels: "
              "%.0f ms\n",
              TotalGenMs);
}

std::string
cogent::bench::renderComparisonJson(const std::vector<ComparisonRow> &Rows,
                                    const gpu::DeviceSpec &Device,
                                    const char *FigureLabel,
                                    unsigned ElementSize) {
  support::JsonWriter W;
  W.beginObject();
  W.member("figure", FigureLabel);
  W.member("device", Device.Name);
  W.member("element_size", ElementSize);
  W.member("suite", "tccg");

  W.key("contractions");
  W.beginArray();
  for (const ComparisonRow &Row : Rows) {
    W.beginObject();
    W.member("id", Row.Id);
    W.member("name", Row.Name);
    W.member("spec", Row.Spec);
    W.member("category", Row.Category);
    W.member("cogent_gflops", Row.CogentGflops);
    W.member("nwchem_gflops", Row.NwchemGflops);
    W.member("talsh_gflops", Row.TalshGflops);
    W.member("cogent_config", Row.CogentConfig);
    W.member("codegen_ms", Row.CogentElapsedMs);
    W.member("predicted_transactions", Row.PredictedTransactions);
    W.member("verifier_rejections", Row.VerifierRejections);
    W.member("lint_findings", Row.LintFindings);
    W.member("lint_rejections", Row.LintRejections);
    W.member("register_pressure_plan",
             static_cast<uint64_t>(Row.RegisterPressurePlan));
    W.member("register_pressure_source",
             static_cast<uint64_t>(Row.RegisterPressureSource));
    if (Row.SimExtent > 0) {
      W.key("traffic_cross_check");
      W.beginObject();
      W.member("extent", Row.SimExtent);
      W.member("predicted", Row.SimPredictedTransactions);
      W.member("simulated", Row.SimMeasuredTransactions);
      if (Row.SimMeasuredTransactions > 0.0)
        W.member("model_over_sim",
                 Row.SimPredictedTransactions / Row.SimMeasuredTransactions);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();

  W.key("summary");
  W.beginObject();
  W.member("geomean_speedup_vs_nwchem", geomeanSpeedup(Rows, true));
  W.member("geomean_speedup_vs_talsh", geomeanSpeedup(Rows, false));
  double TotalGenMs = 0.0;
  uint64_t TotalRejections = 0;
  uint64_t TotalLintFindings = 0;
  uint64_t TotalLintRejections = 0;
  uint64_t MaxPressureDelta = 0;
  for (const ComparisonRow &Row : Rows) {
    TotalGenMs += Row.CogentElapsedMs;
    TotalRejections += Row.VerifierRejections;
    TotalLintFindings += Row.LintFindings;
    TotalLintRejections += Row.LintRejections;
    if (Row.RegisterPressureSource > 0) {
      uint64_t Delta = Row.RegisterPressurePlan > Row.RegisterPressureSource
                           ? Row.RegisterPressurePlan -
                                 Row.RegisterPressureSource
                           : Row.RegisterPressureSource -
                                 Row.RegisterPressurePlan;
      MaxPressureDelta = std::max(MaxPressureDelta, Delta);
    }
  }
  W.member("total_codegen_ms", TotalGenMs);
  W.member("total_verifier_rejections", TotalRejections);
  W.member("total_lint_findings", TotalLintFindings);
  W.member("total_lint_rejections", TotalLintRejections);
  W.member("max_register_pressure_delta", MaxPressureDelta);
  W.endObject();
  W.endObject();
  return W.take();
}

bool cogent::bench::writeBenchJson(const std::string &Path,
                                   const std::string &Json) {
  std::string Err;
  if (!support::validateJson(Json, &Err)) {
    // A malformed reporter is a harness bug; surface it loudly in the text
    // output that CI archives.
    std::printf("\nwarning: refusing to write malformed JSON to %s (%s)\n",
                Path.c_str(), Err.c_str());
    return false;
  }
  std::FILE *File = std::fopen(Path.c_str(), "w");
  bool Ok = File != nullptr;
  if (Ok) {
    Ok = std::fwrite(Json.data(), 1, Json.size(), File) == Json.size();
    Ok &= std::fclose(File) == 0;
  }
  if (Ok)
    std::printf("\nwrote %s\n", Path.c_str());
  else
    std::printf("\nwarning: could not write %s\n", Path.c_str());
  return Ok;
}

std::string cogent::bench::benchJsonPath(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--json=", 0) == 0)
      return Arg.substr(7);
  }
  std::string Name = Argv[0];
  size_t Slash = Name.find_last_of('/');
  if (Slash != std::string::npos)
    Name = Name.substr(Slash + 1);
  return Name + ".json";
}

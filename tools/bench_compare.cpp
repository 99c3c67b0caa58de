//===- tools/bench_compare.cpp - perfbench perf-regression gate ------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// Checks perfbench results against the end-to-end metrics BENCHMARK.json
// declares, so scripts/run_all.sh can gate on them. A result file is one
// object {"detail": <perfbench detail line>, "result": <perfbench result
// line>}; the checked-in BENCH_<workload>.json files have that shape.
//
//   bench_compare --benchmark BENCHMARK.json --schema RESULT.json
//       The result is correct ("correct": true), its detail line carries
//       the provenance (workload, seed, seconds, build type, chaos flag)
//       and every end-to-end metric is present with its declared unit.
//
//   bench_compare --benchmark BENCHMARK.json --fresh F.json --baseline B.json
//       The schema check on both files; their provenance must match; then
//       no metric may be worse than the baseline by more than its bound,
//       in the metric's "better" direction: for "higher",
//       fresh >= baseline * (1 - bound); for "lower",
//       fresh <= baseline * (1 + bound).
//
// Every bound comes from BENCHMARK.json. Exit codes follow the repo
// convention: 0 pass, 1 regression or an invalid or unreadable file, 2
// usage error. Every check prints a PASS or FAIL line with its margin.
//
//===----------------------------------------------------------------------===//

#include "support/JsonValue.h"

#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

using cogent::ErrorOr;
using cogent::support::JsonValue;

namespace {

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s --benchmark BENCHMARK.json --schema RESULT.json\n"
               "       %s --benchmark BENCHMARK.json --fresh FRESH.json "
               "--baseline BASELINE.json\n",
               Argv0, Argv0);
  return 2;
}

ErrorOr<JsonValue> loadJson(const std::string &Path) {
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return cogent::Error(cogent::ErrorCode::InvalidSpec,
                         "cannot open '" + Path + "'");
  std::string Content;
  char Buffer[1 << 16];
  size_t Read;
  while ((Read = std::fread(Buffer, 1, sizeof(Buffer), F)) > 0)
    Content.append(Buffer, Read);
  std::fclose(F);
  return std::move(cogent::support::parseJson(Content))
      .withContext("reading '" + Path + "'");
}

/// One end-to-end metric of BENCHMARK.json.
struct MetricSpec {
  std::string Name;
  std::string Unit;
  bool HigherIsBetter = true;
  double Bound = 0.0;
};

/// Reads BENCHMARK.json's "end_to_end" list; empty on a malformed entry
/// (reported on stderr).
std::vector<MetricSpec> readSpecs(const JsonValue &Benchmark) {
  const JsonValue *List = Benchmark.find("end_to_end");
  if (!List || !List->isArray() || List->asArray().empty()) {
    std::fprintf(stderr, "bench_compare: no \"end_to_end\" metric list\n");
    return {};
  }
  std::vector<MetricSpec> Specs;
  for (const JsonValue &Entry : List->asArray()) {
    const JsonValue *Name = Entry.find("name");
    const JsonValue *Unit = Entry.find("unit");
    const JsonValue *Better = Entry.find("better");
    std::optional<double> Bound = Entry.findNumber("bound");
    if (!Name || !Name->isString() || !Unit || !Unit->isString() ||
        !Better || !Better->isString() ||
        (Better->asString() != "higher" && Better->asString() != "lower") ||
        !Bound || *Bound < 0.0) {
      std::fprintf(stderr, "bench_compare: malformed end_to_end entry\n");
      return {};
    }
    Specs.push_back({Name->asString(), Unit->asString(),
                     Better->asString() == "higher", *Bound});
  }
  return Specs;
}

/// The provenance fields two compared runs must share, with the JSON
/// kind each must have.
const std::pair<const char *, JsonValue::Kind> ProvenanceKeys[] = {
    {"workload", JsonValue::Kind::String},
    {"seed", JsonValue::Kind::Number},
    {"seconds", JsonValue::Kind::Number},
    {"build_type", JsonValue::Kind::String},
    {"cogent_chaos", JsonValue::Kind::Bool},
};

const JsonValue *provenance(const JsonValue &Report) {
  const JsonValue *Detail = Report.find("detail");
  return Detail ? Detail->find("provenance") : nullptr;
}

const JsonValue *metric(const JsonValue &Report, const std::string &Name) {
  const JsonValue *Result = Report.find("result");
  const JsonValue *Metrics = Result ? Result->find("metrics") : nullptr;
  return Metrics ? Metrics->find(Name) : nullptr;
}

/// Validates one result file; prints one line per violation and returns
/// their number.
int checkSchema(const JsonValue &Report, const std::vector<MetricSpec> &Specs,
                const std::string &Label) {
  int Violations = 0;
  auto Complain = [&](const std::string &Msg) {
    std::fprintf(stderr, "bench_compare: %s: %s\n", Label.c_str(),
                 Msg.c_str());
    ++Violations;
  };

  const JsonValue *Result = Report.find("result");
  const JsonValue *Correct = Result ? Result->find("correct") : nullptr;
  if (!Correct || !Correct->isBool() || !Correct->asBool())
    Complain("result is not \"correct\": true");

  const JsonValue *Provenance = provenance(Report);
  for (const auto &[Key, Kind] : ProvenanceKeys) {
    const JsonValue *V = Provenance ? Provenance->find(Key) : nullptr;
    if (!V || V->kind() != Kind)
      Complain(std::string("detail.provenance: missing or mistyped '") +
               Key + "'");
  }

  for (const MetricSpec &Spec : Specs) {
    const JsonValue *M = metric(Report, Spec.Name);
    const JsonValue *Unit = M ? M->find("unit") : nullptr;
    if (!M || !M->findNumber("value"))
      Complain("metric '" + Spec.Name + "' missing");
    else if (!Unit || !Unit->isString() || Unit->asString() != Spec.Unit)
      Complain("metric '" + Spec.Name + "' not in unit '" + Spec.Unit + "'");
  }
  return Violations;
}

bool sameValue(const JsonValue &A, const JsonValue &B) {
  if (A.kind() != B.kind())
    return false;
  switch (A.kind()) {
  case JsonValue::Kind::String: return A.asString() == B.asString();
  case JsonValue::Kind::Number: return A.asNumber() == B.asNumber();
  case JsonValue::Kind::Bool: return A.asBool() == B.asBool();
  default: return false;
  }
}

/// Compares two schema-valid results; prints one line per check and
/// returns the number of failures.
int compare(const JsonValue &Fresh, const JsonValue &Baseline,
            const std::vector<MetricSpec> &Specs) {
  int Failures = 0;
  for (const auto &Key : ProvenanceKeys) {
    if (!sameValue(*provenance(Fresh)->find(Key.first),
                   *provenance(Baseline)->find(Key.first))) {
      std::printf("bench_compare: FAIL: provenance '%s' differs\n",
                  Key.first);
      ++Failures;
    }
  }
  if (Failures)
    return Failures; // Different runs: their metrics are not comparable.

  for (const MetricSpec &Spec : Specs) {
    double Value = *metric(Fresh, Spec.Name)->findNumber("value");
    double Base = *metric(Baseline, Spec.Name)->findNumber("value");
    double Limit = Spec.HigherIsBetter ? Base * (1.0 - Spec.Bound)
                                       : Base * (1.0 + Spec.Bound);
    bool Ok = Spec.HigherIsBetter ? Value >= Limit : Value <= Limit;
    std::printf("bench_compare: %s: %-22s %12.4f %s %12.4f (baseline "
                "%.4f, bound %.2f)\n",
                Ok ? "PASS" : "FAIL", Spec.Name.c_str(), Value,
                Spec.HigherIsBetter ? ">=" : "<=", Limit, Base, Spec.Bound);
    Failures += Ok ? 0 : 1;
  }
  return Failures;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string BenchmarkPath, SchemaPath, FreshPath, BaselinePath;
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    std::string *Target = Arg == "--benchmark" ? &BenchmarkPath
                          : Arg == "--schema"  ? &SchemaPath
                          : Arg == "--fresh"   ? &FreshPath
                          : Arg == "--baseline" ? &BaselinePath
                                                : nullptr;
    if (!Target) {
      std::fprintf(stderr, "bench_compare: unknown argument '%s'\n",
                   Arg.c_str());
      return usage(Argv[0]);
    }
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "bench_compare: %s needs a value\n", Arg.c_str());
      return usage(Argv[0]);
    }
    *Target = Argv[++I];
  }
  bool SchemaMode = !SchemaPath.empty();
  bool CompareMode = !FreshPath.empty() || !BaselinePath.empty();
  if (BenchmarkPath.empty() || SchemaMode == CompareMode ||
      (CompareMode && (FreshPath.empty() || BaselinePath.empty())))
    return usage(Argv[0]);

  ErrorOr<JsonValue> Benchmark = loadJson(BenchmarkPath);
  if (!Benchmark) {
    std::fprintf(stderr, "bench_compare: %s\n",
                 Benchmark.error().message().c_str());
    return 1;
  }
  std::vector<MetricSpec> Specs = readSpecs(*Benchmark);
  if (Specs.empty())
    return 1;

  std::vector<std::string> Paths =
      SchemaMode ? std::vector<std::string>{SchemaPath}
                 : std::vector<std::string>{FreshPath, BaselinePath};
  std::vector<JsonValue> Reports;
  int Violations = 0;
  for (const std::string &Path : Paths) {
    ErrorOr<JsonValue> Report = loadJson(Path);
    if (!Report) {
      std::fprintf(stderr, "bench_compare: %s\n",
                   Report.error().message().c_str());
      return 1;
    }
    Violations += checkSchema(*Report, Specs, Path);
    Reports.push_back(std::move(*Report));
  }
  if (Violations) {
    std::fprintf(stderr, "bench_compare: FAIL: %d schema violation%s\n",
                 Violations, Violations == 1 ? "" : "s");
    return 1;
  }
  if (SchemaMode) {
    std::printf("bench_compare: PASS: %s schema valid\n", SchemaPath.c_str());
    return 0;
  }

  int Failures = compare(Reports[0], Reports[1], Specs);
  if (Failures) {
    std::fprintf(stderr, "bench_compare: FAIL: %d check%s failed vs %s\n",
                 Failures, Failures == 1 ? "" : "s", BaselinePath.c_str());
    return 1;
  }
  std::printf("bench_compare: PASS: %s within the BENCHMARK.json bounds of "
              "%s\n",
              FreshPath.c_str(), BaselinePath.c_str());
  return 0;
}

//===- perfbench/src/Main.cpp - Benchmark entry point ---------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// perfbench --workload NAME --seed N --seconds S --trace 0|1
///
/// Runs one workload for S seconds on inputs drawn from seed N, checks every
/// output, and prints two lines on stdout: a detail object (provenance,
/// workload parameters, sample counts, output-check and validity records)
/// and, last, the result object {"correct", "attempted", "failed",
/// "metrics"}. --trace 0 reports the end-to-end metrics, --trace 1 the
/// per-layer metrics of a separate traced run. Exit code 2 is a usage error;
/// 3 an invalid run (no result printed).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <thread>

using namespace perfbench;

namespace {

int usage(const char *Message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "suite_top1|shortlist_top8|service_mixed --seed N "
               "--seconds S --trace 0|1\n",
               Message);
  return 2;
}

/// Strict numeric parsing: the whole argument must be consumed.
bool parseNumber(const char *Text, double &Out) {
  char *End = nullptr;
  Out = std::strtod(Text, &End);
  return End != Text && *End == '\0';
}

JsonObject provenance(const RunArgs &Args) {
  JsonObject P;
  P.str("build_type", PERFBENCH_BUILD_TYPE)
#ifdef COGENT_CHAOS_ENABLED
      .flag("cogent_chaos", true)
#else
      .flag("cogent_chaos", false)
#endif
      .str("compiler", __VERSION__)
      .num("nproc", std::thread::hardware_concurrency())
      .str("workload", Args.Workload)
      .num("seed", static_cast<double>(Args.Seed))
      .num("seconds", Args.Seconds)
      .flag("trace", Args.Trace)
      .str("chaos_sites", "none (never armed)");
  return P;
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs Args;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < Argc; ++I) {
    if (I + 1 >= Argc)
      return usage("missing value for the last flag");
    const char *Flag = Argv[I], *Value = Argv[++I];
    double Number = 0.0;
    if (std::strcmp(Flag, "--workload") == 0) {
      Args.Workload = Value;
    } else if (std::strcmp(Flag, "--seed") == 0) {
      if (!parseNumber(Value, Number) || Number < 0)
        return usage("--seed must be a non-negative integer");
      Args.Seed = static_cast<uint64_t>(Number);
      HaveSeed = true;
    } else if (std::strcmp(Flag, "--seconds") == 0) {
      if (!parseNumber(Value, Number) || Number <= 0 || Number > 600)
        return usage("--seconds must be in (0, 600]");
      Args.Seconds = Number;
      HaveSeconds = true;
    } else if (std::strcmp(Flag, "--trace") == 0) {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return usage("--trace must be 0 or 1");
      Args.Trace = Value[0] == '1';
      HaveTrace = true;
    } else {
      return usage((std::string("unknown flag ") + Flag).c_str());
    }
  }
  if (Args.Workload.empty() || !HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--workload, --seed, --seconds and --trace are required");

  Report Out;
  bool Valid = false;
  if (Args.Workload == "suite_top1")
    Valid = runSuiteTop1(Args, Out);
  else if (Args.Workload == "shortlist_top8")
    Valid = runShortlistTop8(Args, Out);
  else if (Args.Workload == "service_mixed")
    Valid = runServiceMixed(Args, Out);
  else
    return usage(("unknown workload " + Args.Workload).c_str());
  if (!Valid)
    return 3;

  // Every metric BENCHMARK.json declares for this mode, exactly once.
  const std::vector<std::string> &Expected =
      Args.Trace ? perLayerMetricNames() : endToEndMetricNames();
  std::set<std::string> Reported;
  for (const Metric &M : Out.Metrics)
    Reported.insert(M.Name);
  if (Reported.size() != Out.Metrics.size() ||
      Reported != std::set<std::string>(Expected.begin(), Expected.end())) {
    std::fprintf(stderr, "perfbench: internal error: metric set mismatch\n");
    return 4;
  }

  Out.Details.obj("provenance", provenance(Args));
  std::printf("%s\n", Out.Details.render().c_str());

  JsonObject Metrics;
  for (const std::string &Name : Expected)
    for (const Metric &M : Out.Metrics)
      if (M.Name == Name) {
        JsonObject Value;
        Value.num("value", M.Value).str("unit", M.Unit);
        Metrics.obj(M.Name, Value);
      }
  JsonObject Result;
  Result.flag("correct", Out.Correct)
      .num("attempted", static_cast<double>(Out.Attempted))
      .num("failed", static_cast<double>(Out.Failed))
      .obj("metrics", Metrics);
  std::printf("%s\n", Result.render().c_str());
  return 0;
}

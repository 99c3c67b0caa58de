//===- perfbench/src/Bench.h - Shared benchmark declarations --------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Declarations shared by the benchmark's translation units: run
/// arguments, the report every workload fills, sample statistics, the
/// output check (with its negative control) and the per-layer probes of
/// the traced run. The benchmark only calls the program's public API.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_SRC_BENCH_H
#define PERFBENCH_SRC_BENCH_H

#include "core/Cogent.h"
#include "gpu/DeviceSpec.h"
#include "ir/Contraction.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point From, Clock::time_point To) {
  return std::chrono::duration<double, std::milli>(To - From).count();
}

/// Command-line arguments of one run.
struct RunArgs {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
};

//===----------------------------------------------------------------------===//
// JSON output
//===----------------------------------------------------------------------===//

/// An insertion-ordered JSON object rendered on one line.
class JsonObject {
public:
  JsonObject &num(const std::string &Key, double Value);
  JsonObject &str(const std::string &Key, const std::string &Value);
  JsonObject &flag(const std::string &Key, bool Value);
  JsonObject &obj(const std::string &Key, const JsonObject &Value);
  JsonObject &strList(const std::string &Key,
                      const std::vector<std::string> &Values);
  std::string render() const;

private:
  std::vector<std::pair<std::string, std::string>> Members;
};

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

/// Percentile \p P (0..100) by linear interpolation between closest ranks;
/// 0 for an empty sample.
double percentile(std::vector<double> Samples, double P);
double median(std::vector<double> Samples);
double mean(const std::vector<double> &Samples);
/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &Values);
/// Peak resident set size of this process so far, MiB.
double peakRssMb();

/// Machine-wide CPU time from /proc/stat, in ticks: what the hypervisor
/// stole from this guest, and everything.
struct CpuTicks {
  double Steal = 0.0;
  double Total = 0.0;
};
CpuTicks cpuTicks();
/// Share of CPU time stolen between two readings; recorded with each run
/// because it explains run-to-run spread on a shared host.
double stealShare(const CpuTicks &Before, const CpuTicks &After);

/// Summary of a latency sample: p50, p99 and the count, which must leave
/// at least ten samples beyond p99 (>= 1000 samples).
JsonObject describeSamples(const std::vector<double> &Ms);
/// Summary of the repeated set-up times of one run.
JsonObject describeSetup(const std::vector<double> &Seconds);

//===----------------------------------------------------------------------===//
// Report
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What one run prints: the contract's final line (correct / attempted /
/// failed / metrics) and a detail line before it (provenance, sample
/// counts, check and validity records).
struct Report {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  JsonObject Details;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
};

/// Runs one workload; returns false (after printing a diagnostic to
/// stderr) when the run is invalid and must not report a result.
bool runSuiteTop1(const RunArgs &Args, Report &Out);
bool runShortlistTop8(const RunArgs &Args, Report &Out);
bool runServiceMixed(const RunArgs &Args, Report &Out);

//===----------------------------------------------------------------------===//
// Output check
//===----------------------------------------------------------------------===//

/// Clamps every extent of \p TC to \p MaxExtent (the differential check's
/// validation size).
cogent::ir::Contraction clampExtents(const cogent::ir::Contraction &TC,
                                     int64_t MaxExtent);

/// The contraction a generation result's kernels implement: the matricized
/// GEMM for a TTGT result, \p TC otherwise.
const cogent::ir::Contraction &
planContraction(const cogent::ir::Contraction &TC,
                const cogent::core::GenerationResult &Result);

/// Checks each distinct (contraction, device, config) once with
/// verify::runDifferentialCheck against tensor::contractReference at
/// clamped extents. Items are added during or after the timed region; run()
/// executes the checks outside it. An item passes when its simulated
/// outputs equal the reference; whether the cost model's traffic agrees
/// with the simulator's within the checker's tolerance is recorded apart.
class OutputCheck {
public:
  explicit OutputCheck(uint64_t Seed) : Seed(Seed) {}

  /// Registers one (contraction, config) on \p Device; returns its key.
  std::string add(const cogent::ir::Contraction &TC,
                  const cogent::core::KernelConfig &Config,
                  const cogent::gpu::DeviceSpec &Device);

  /// Runs every registered check not yet run, on \p Threads threads.
  void run(unsigned Threads);

  /// True when the item with \p Key ran and passed.
  bool passed(const std::string &Key) const;

  size_t size() const { return Items.size(); }
  size_t failures() const;
  /// First failure messages, for the detail line.
  std::vector<std::string> failureNotes(size_t Max) const;
  /// Passing items whose modeled and simulated traffic disagree beyond
  /// the checker's TrafficFactor, and their first messages.
  size_t trafficDisagreements() const;
  std::vector<std::string> trafficNotes(size_t Max) const;

private:
  struct Item {
    cogent::ir::Contraction TC;
    cogent::core::KernelConfig Config;
    cogent::gpu::DeviceSpec Device;
    bool Ran = false;
    bool Passed = false;
    bool TrafficAgrees = true;
    std::string Note;
    std::string TrafficNote;
  };
  uint64_t Seed;
  std::map<std::string, Item> Items;
};

/// Feeds deliberately wrong results through OutputCheck: \p Selected (a
/// configuration selected for \p TC) with the output's FVI mapped twice,
/// and with its X input flipped. Returns the detail record; \p AllCaught is
/// false when any control passed the check.
JsonObject runNegativeControl(const cogent::ir::Contraction &TC,
                              const cogent::core::KernelConfig &Selected,
                              const cogent::gpu::DeviceSpec &Device,
                              uint64_t Seed, bool &AllCaught);

/// Runs \p F(I) for every I in [0, N) on \p Threads threads.
template <typename Fn> void parallelFor(size_t N, unsigned Threads, Fn &&F) {
  std::atomic<size_t> Next{0};
  auto Drain = [&] {
    for (size_t I = Next++; I < N; I = Next++)
      F(I);
  };
  std::vector<std::thread> Pool;
  for (unsigned T = 1; T < Threads; ++T)
    Pool.emplace_back(Drain);
  Drain();
  for (std::thread &Worker : Pool)
    Worker.join();
}

//===----------------------------------------------------------------------===//
// Traced run: per-layer probes and span accounting
//===----------------------------------------------------------------------===//

/// Per-layer accumulators of the traced run. Times are totals; the
/// *Calls/*Kernels fields are the denominators.
struct LayerTotals {
  // Span self times, ms, over traced generate() calls.
  double GenerateWallMs = 0.0; ///< Benchmark-side (or cogent.generate) span.
  double UnattributedMs = 0.0; ///< Parts of it no layer span covers.
  double EnumerateMs = 0.0, RankMs = 0.0, EmitMs = 0.0, FallbackMs = 0.0;
  uint64_t GenerateCalls = 0;
  // Counter deltas summed over CountedCalls generate() results.
  uint64_t CountedCalls = 0;
  double ConfigsExamined = 0.0, Survivors = 0.0, CandidatesRanked = 0.0;
  double KernelsReturned = 0.0, KernelsLinted = 0.0, RacePairs = 0.0;
  // Outside calls into the rank layer, us totals over RankProbeCalls each.
  double PlanBuildUs = 0.0, VerifyPlanUs = 0.0, CostUs = 0.0,
         VerifyCostUs = 0.0, OccupancyUs = 0.0;
  uint64_t RankProbeCalls = 0;
  // Outside calls into the emit and analysis layers, us totals over
  // EmitProbeKernels each.
  double CodegenUs = 0.0, VerifySourceUs = 0.0, LintUs = 0.0, ParseUs = 0.0,
         DataflowUs = 0.0, RaceUs = 0.0, SourceBytes = 0.0;
  uint64_t EmitProbeKernels = 0;
};

/// Adds the self times of one traced run's spans to \p T. \p Root names
/// the span whose duration is a generate() call's wall time.
void accountSpans(const cogent::support::TraceSession &Session,
                  const char *Root, LayerTotals &T);

/// Adds one generate() result's counter deltas to \p T.
void accountCounters(const cogent::core::GenerationResult &Result,
                     LayerTotals &T);

/// Times outside calls into the rank layer (KernelPlan, verifyPlan,
/// estimateTransactions, verifyCost, planOccupancy) on \p Candidates.
void probeRank(const cogent::ir::Contraction &TC,
               const std::vector<cogent::core::KernelConfig> &Candidates,
               const cogent::gpu::DeviceSpec &Device, unsigned ElementSize,
               LayerTotals &T);

/// Times outside calls into the emit and analysis layers (emitCuda,
/// verifySource, lintKernel, parseKernelSource, buildDataflow,
/// proveRaces) on \p Result's kernels.
void probeEmit(const cogent::ir::Contraction &TC,
               const cogent::core::GenerationResult &Result,
               const cogent::gpu::DeviceSpec &Device, unsigned ElementSize,
               LayerTotals &T);

/// Adds the core.*, verify.*, analysis.* and trace.unattributed_share
/// per-layer metrics from \p T.
void addLayerMetrics(const LayerTotals &T, Report &Out);

/// The service.* and loadgen.* per-layer metrics, for the workloads that
/// do not cross the service (reported as 0 and listed as not applicable).
void addServiceMetricsNotApplicable(Report &Out);

/// Every metric name a run must report, in BENCHMARK.json order; main
/// refuses to print a result that misses one.
const std::vector<std::string> &perLayerMetricNames();
const std::vector<std::string> &endToEndMetricNames();

} // namespace perfbench

#endif // PERFBENCH_SRC_BENCH_H

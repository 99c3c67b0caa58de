//===- examples/cogent_cli.cpp - Command-line code generator ---------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A command-line front end mirroring the original COGENT tool's workflow:
/// feed it a contraction string and a representative size, get CUDA source
/// on stdout and the search report on stderr.
///
/// Usage:
///   cogent_cli <C-A-B spec> [uniform-extent] [--device p100|v100]
///              [--fp32] [--topk N] [--opencl] [--double-buffer]
///              [--max-configs N] [--deadline-ms X] [--max-source-bytes N]
///              [--smem-per-block N] [--transaction-bytes N]
///              [--chaos-seed N] [--chaos-sites LIST]
///              [--lint=off|warn|strict] [--explain-lint]
///              [--explain-races] [--explain-dataflow] [--pressure-ranking]
///              [--trace=FILE] [--metrics=FILE] [--quiet]
/// Examples:
///   cogent_cli abcd-aebf-dfce 72
///   cogent_cli abcdef-gdab-efgc 16 --device p100 --fp32
///   cogent_cli ij-ik-kj 4096 --opencl --double-buffer
///   cogent_cli ab-ac-cb 1024 --trace=t.json --metrics=m.json --quiet
///   cogent_cli abc-abd-dc 64 --chaos-seed 7 --chaos-sites all
///
/// --trace writes a Chrome trace-event JSON file (open it in
/// chrome://tracing or https://ui.perfetto.dev) with one span per pipeline
/// phase; --metrics writes a machine-readable summary of the run (phase
/// timings, enumeration stats, per-kernel model outputs, counter deltas);
/// --quiet suppresses the stderr report and the stdout source dump so
/// scripted runs produce only the requested files (errors still print).
///
/// --lint selects the post-emit KernelLint gate mode (strict by default:
/// sources with error findings are rejected and re-emitted/demoted);
/// --explain-lint dumps the analyzer's view of the winning kernel — the
/// parsed resource table, staging strides, barrier structure and any
/// findings — to stderr.
///
/// --explain-dataflow dumps KernelDataflow's view of the winning kernel —
/// the CFG, per-location liveness, register-pressure table, staging-buffer
/// lifetimes and barrier verdicts — to stderr. --pressure-ranking makes
/// the search rank candidates by the refined liveness-backed register
/// estimate's occupancy instead of the flat per-config one (the estimates
/// are reported in --metrics either way).
///
/// --chaos-seed/--chaos-sites arm the deterministic fault-injection layer
/// (builds configured with COGENT_CHAOS=ON, the default): --chaos-sites
/// takes "all" or a comma-separated subset of the named sites in
/// support/FaultInjection.h, and the seed makes every injected fault
/// reproducible. --smem-per-block/--transaction-bytes override those two
/// fields of the selected device — the supported way to point the pipeline
/// at a constrained (or hostile) device from a script.
///
/// Batch mode: --batch-file FILE routes requests through the resilient
/// GenerationService (worker pool, sharded plan cache, deadline
/// degradation, retry/circuit-breaker — docs/ARCHITECTURE.md §15) instead
/// of a single inline generate(). Each non-comment line of FILE is one
/// request: "<C-A-B spec> [uniform-extent]". --jobs N sets the worker
/// count (default 4), --request-deadline-ms M gives every request a
/// wall-clock budget (deadline-pressured requests degrade to cheaper
/// fallback rungs rather than failing). One summary line per request goes
/// to stderr; --quiet keeps only the final tally.
///
/// Batch-mode observability: --telemetry-json FILE writes the service's
/// telemetry snapshot (counters, gauges, latency/queue-wait histograms
/// with p50/p90/p99/p999 — service/Telemetry.h) as one JSON object after
/// the batch completes; --stats-interval-ms N prints a "# stats: {...}"
/// one-line JSON progress dump to stderr every N ms while the batch runs.
/// Both flags require --batch-file (usage error otherwise).
///
/// Exit codes: 0 = success — including runs where the plan verifier
/// rejected candidates and the fallback chain rescued the result (a
/// one-line "# notice:" marks those unless --quiet); 1 = the input was
/// rejected with a diagnostic (printed to stderr as "error: <Code>:
/// <context>: <message>", e.g. InvalidDeviceSpec for a nonsense device or
/// VerificationFailed when no fallback rung could produce a verified
/// kernel) or an output file could not be written, 2 = usage error. Batch
/// mode adds 3 = the batch ran to completion but at least one request
/// failed with a typed per-request error (exit 1 is reserved there for
/// infrastructure failures: an unreadable batch file).
///
//===----------------------------------------------------------------------===//

#include "analysis/KernelDataflow.h"
#include "analysis/KernelLint.h"
#include "analysis/KernelRaceProver.h"
#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "gpu/DeviceSpec.h"
#include "service/GenerationService.h"
#include "support/JsonWriter.h"
#include "support/Trace.h"

#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

using namespace cogent;

static void printUsage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s <C-A-B spec> [uniform-extent] "
               "[--device p100|v100] [--fp32] [--topk N] [--opencl] "
               "[--double-buffer] [--explain] [--max-configs N] "
               "[--deadline-ms X] [--max-source-bytes N] "
               "[--smem-per-block N] [--transaction-bytes N] "
               "[--chaos-seed N] [--chaos-sites LIST] "
               "[--lint=off|warn|strict] [--explain-lint] "
               "[--explain-races] [--explain-dataflow] [--pressure-ranking] "
               "[--trace=FILE] "
               "[--metrics=FILE] [--quiet]\n"
               "       %s --batch-file FILE [--jobs N] "
               "[--request-deadline-ms M] [--telemetry-json FILE] "
               "[--stats-interval-ms N] [shared flags]\n",
               Argv0, Argv0);
}

/// The one numeric parser for flag values and extents: all of \p Text must
/// be a finite T that is >= 0 (> 0 with \p Positive). Empty input,
/// trailing characters ("32x"), a minus sign on an unsigned T, overflow
/// and "nan"/"inf" all yield std::nullopt instead of a coerced value.
template <typename T>
static std::optional<T> parseNumber(const std::string &Text, bool Positive) {
  T Value{};
  const char *End = Text.data() + Text.size();
  auto [Ptr, Ec] = std::from_chars(Text.data(), End, Value);
  if (Ec != std::errc() || Ptr != End)
    return std::nullopt;
  if constexpr (std::is_floating_point_v<T>)
    if (!std::isfinite(Value))
      return std::nullopt;
  if (Value < T(0) || (Positive && Value == T(0)))
    return std::nullopt;
  return Value;
}

/// Writes \p Content to \p Path; false on any I/O failure.
static bool writeFileOrComplain(const std::string &Path,
                                const std::string &Content,
                                const char *What) {
  std::FILE *File = std::fopen(Path.c_str(), "w");
  bool Ok = File != nullptr;
  if (Ok) {
    Ok = std::fwrite(Content.data(), 1, Content.size(), File) ==
         Content.size();
    Ok &= std::fclose(File) == 0;
  }
  if (!Ok)
    std::fprintf(stderr, "error: cannot write %s file '%s'\n", What,
                 Path.c_str());
  return Ok;
}

/// Runs --batch-file mode: every request goes through the
/// GenerationService. Returns the process exit code (0 = every request
/// produced a verified plan, 3 = completed with typed per-request errors,
/// 1 = the batch file itself was unusable or an output file could not be
/// written).
static int runBatch(const std::string &BatchPath, const gpu::DeviceSpec &Device,
                    const core::CogentOptions &Options, unsigned Jobs,
                    double RequestDeadlineMs, bool Quiet,
                    const std::string &TelemetryJsonPath,
                    double StatsIntervalMs) {
  std::ifstream File(BatchPath);
  if (!File) {
    std::fprintf(stderr, "error: cannot read batch file '%s'\n",
                 BatchPath.c_str());
    return 1;
  }

  std::vector<service::ServiceRequest> Requests;
  std::vector<std::string> Labels;
  std::string Line;
  unsigned LineNo = 0;
  size_t BadLines = 0;
  while (std::getline(File, Line)) {
    ++LineNo;
    std::istringstream LS(Line);
    std::string Spec;
    if (!(LS >> Spec) || Spec[0] == '#')
      continue;
    int64_t Extent = 32;
    std::string ExtentToken;
    if (LS >> ExtentToken) {
      std::optional<int64_t> Parsed =
          parseNumber<int64_t>(ExtentToken, /*Positive=*/true);
      if (!Parsed) {
        // A malformed line is that request's typed failure, not the
        // batch's: report it, count it, keep going.
        std::fprintf(stderr, "error: line %u: %s: extent '%s' must be a "
                             "positive integer\n",
                     LineNo, errorCodeName(ErrorCode::InvalidSpec),
                     ExtentToken.c_str());
        ++BadLines;
        continue;
      }
      Extent = *Parsed;
    }
    service::ServiceRequest Request;
    Request.Spec = Spec;
    for (char C = 'a'; C <= 'z'; ++C)
      if (Spec.find(C) != std::string::npos)
        Request.Extents.emplace_back(C, Extent);
    Request.DeadlineMs = RequestDeadlineMs;
    Requests.push_back(std::move(Request));
    Labels.push_back(Spec + " " + std::to_string(Extent));
  }

  service::ServiceOptions ServiceOpts;
  ServiceOpts.NumWorkers = Jobs;
  ServiceOpts.Generation = Options;
  service::GenerationService Service(Device, ServiceOpts);

  // Periodic "# stats:" JSON lines while the batch runs. The ticker reads
  // only thread-safe snapshots; it is joined before the summary prints so
  // a dump never interleaves with the final tally.
  std::atomic<bool> TickerStop{false};
  std::thread Ticker;
  if (StatsIntervalMs > 0.0) {
    Ticker = std::thread([&] {
      while (!TickerStop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(StatsIntervalMs));
        service::ServiceStats S = Service.stats();
        support::JsonWriter W;
        W.beginObject();
        W.member("submitted", S.Submitted);
        W.member("completed", S.Completed);
        W.member("failed", S.Failed);
        W.member("shed", S.shed());
        W.member("retries", S.Retries);
        W.member("coalesced", S.Coalesced);
        W.member("cache_hits", S.CacheHits);
        W.member("events", Service.telemetry().eventsRecorded());
        W.endObject();
        std::fprintf(stderr, "# stats: %s\n", W.take().c_str());
      }
    });
  }

  std::vector<ErrorOr<service::ServiceResult>> Results =
      Service.processBatch(Requests);

  if (Ticker.joinable()) {
    TickerStop.store(true, std::memory_order_relaxed);
    Ticker.join();
  }

  size_t Failures = BadLines;
  for (size_t I = 0; I < Results.size(); ++I) {
    if (Results[I]) {
      const service::ServiceResult &R = *Results[I];
      if (!Quiet)
        std::fprintf(stderr,
                     "# ok: %-28s fallback=%-12s cached=%d coalesced=%d "
                     "degraded=%d attempts=%u %.1f ms\n",
                     Labels[I].c_str(),
                     core::fallbackLevelName(R.Fallback), R.CacheHit ? 1 : 0,
                     R.Coalesced ? 1 : 0,
                     (R.DeadlineDegraded || R.BreakerDegraded) ? 1 : 0,
                     R.Attempts, R.TotalMs);
    } else {
      ++Failures;
      std::fprintf(stderr, "error: %s: %s\n", Labels[I].c_str(),
                   Results[I].error().renderWithCode().c_str());
    }
  }
  service::ServiceStats Stats = Service.stats();
  std::fprintf(stderr,
               "# batch: %zu requests, %zu failed | %llu completed, "
               "%llu shed, %llu retries, %llu coalesced, %llu cache hits, "
               "%llu degraded\n",
               Requests.size() + BadLines, Failures,
               static_cast<unsigned long long>(Stats.Completed),
               static_cast<unsigned long long>(Stats.shed()),
               static_cast<unsigned long long>(Stats.Retries),
               static_cast<unsigned long long>(Stats.Coalesced),
               static_cast<unsigned long long>(Stats.CacheHits),
               static_cast<unsigned long long>(Stats.DeadlineDegraded));
  if (!TelemetryJsonPath.empty() &&
      !writeFileOrComplain(TelemetryJsonPath, Service.telemetrySnapshot(),
                           "telemetry"))
    return 1;
  return Failures == 0 ? 0 : 3;
}

/// Matches "--flag=VALUE" or the two-argument "--flag VALUE" spelling;
/// advances \p I past a consumed second argument.
static bool fileArg(const char *Flag, int Argc, char **Argv, int *I,
                    std::string *Out) {
  std::string Arg = Argv[*I];
  std::string Prefix = std::string(Flag) + "=";
  if (Arg.rfind(Prefix, 0) == 0) {
    *Out = Arg.substr(Prefix.size());
    return true;
  }
  if (Arg == Flag && *I + 1 < Argc) {
    *Out = Argv[++*I];
    return true;
  }
  return false;
}

int main(int Argc, char **Argv) {
  if (Argc < 2) {
    printUsage(Argv[0]);
    return 2;
  }
  std::string Spec;
  int64_t Extent = 32;
  gpu::DeviceSpec Device = gpu::makeV100();
  core::CogentOptions Options;
  bool UseOpenCl = false;
  bool UseDoubleBuffer = false;
  bool Explain = false;
  bool ExplainLint = false;
  bool ExplainRaces = false;
  bool ExplainDataflow = false;
  bool Quiet = false;
  std::string TracePath;
  std::string MetricsPath;
  std::string BatchPath;
  std::string TelemetryJsonPath;
  double StatsIntervalMs = 0.0;
  bool SawStatsInterval = false;
  unsigned Jobs = 4;
  double RequestDeadlineMs = 0.0;

  // Stores \p Text into \p Out through parseNumber; false (after printing a
  // usage error) when it is not a whole, in-range number.
  auto numberArg = [](auto &Out, const char *What, const std::string &Text,
                      bool Positive = false) {
    using T = std::remove_reference_t<decltype(Out)>;
    std::optional<T> Value = parseNumber<T>(Text, Positive);
    if (!Value) {
      std::fprintf(stderr, "error: %s must be a %s %s, got '%s'\n", What,
                   Positive ? "positive" : "non-negative",
                   std::is_integral_v<T> ? "integer" : "number",
                   Text.c_str());
      return false;
    }
    Out = *Value;
    return true;
  };

  // Positional arguments (the spec, then the extent) may appear anywhere
  // relative to the flags.
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--fp32") {
      Options.ElementSize = 4;
    } else if (Arg == "--quiet") {
      Quiet = true;
    } else if (fileArg("--trace", Argc, Argv, &I, &TracePath) ||
               fileArg("--metrics", Argc, Argv, &I, &MetricsPath) ||
               fileArg("--batch-file", Argc, Argv, &I, &BatchPath) ||
               fileArg("--telemetry-json", Argc, Argv, &I,
                       &TelemetryJsonPath)) {
      // Path captured by fileArg.
    } else if (std::string IntervalArg;
               fileArg("--stats-interval-ms", Argc, Argv, &I, &IntervalArg)) {
      if (!numberArg(StatsIntervalMs, "--stats-interval-ms", IntervalArg,
                     /*Positive=*/true))
        return 2;
      SawStatsInterval = true;
    } else if (Arg == "--jobs" && I + 1 < Argc) {
      if (!numberArg(Jobs, "--jobs", Argv[++I]))
        return 2;
    } else if (Arg == "--request-deadline-ms" && I + 1 < Argc) {
      if (!numberArg(RequestDeadlineMs, "--request-deadline-ms", Argv[++I]))
        return 2;
    } else if (Arg == "--opencl") {
      UseOpenCl = true;
    } else if (Arg == "--double-buffer") {
      UseDoubleBuffer = true;
    } else if (Arg == "--explain") {
      Explain = true;
    } else if (Arg == "--explain-lint") {
      ExplainLint = true;
    } else if (Arg == "--explain-races") {
      ExplainRaces = true;
    } else if (Arg == "--explain-dataflow") {
      ExplainDataflow = true;
    } else if (Arg == "--pressure-ranking") {
      Options.PressureAwareRanking = true;
    } else if (std::string LintArg;
               fileArg("--lint", Argc, Argv, &I, &LintArg)) {
      std::optional<analysis::LintMode> Mode =
          analysis::lintModeFromName(LintArg);
      if (!Mode) {
        std::fprintf(stderr, "error: unknown lint mode '%s' (expected "
                             "off, warn or strict)\n",
                     LintArg.c_str());
        return 2;
      }
      Options.Lint.Mode = *Mode;
    } else if (Arg == "--device" && I + 1 < Argc) {
      std::string Name = Argv[++I];
      if (Name == "p100")
        Device = gpu::makeP100();
      else if (Name == "v100")
        Device = gpu::makeV100();
      else {
        std::fprintf(stderr, "error: unknown device '%s'\n", Name.c_str());
        return 2;
      }
    } else if (Arg == "--topk" && I + 1 < Argc) {
      if (!numberArg(Options.TopK, "--topk", Argv[++I]))
        return 2;
    } else if (Arg == "--max-configs" && I + 1 < Argc) {
      if (!numberArg(Options.Budget.MaxConfigs, "--max-configs", Argv[++I]))
        return 2;
    } else if (Arg == "--deadline-ms" && I + 1 < Argc) {
      if (!numberArg(Options.Budget.DeadlineMs, "--deadline-ms", Argv[++I]))
        return 2;
    } else if (Arg == "--max-source-bytes" && I + 1 < Argc) {
      if (!numberArg(Options.Budget.MaxSourceBytes, "--max-source-bytes",
                     Argv[++I]))
        return 2;
    } else if (Arg == "--smem-per-block" && I + 1 < Argc) {
      if (!numberArg(Device.SharedMemPerBlock, "--smem-per-block", Argv[++I]))
        return 2;
    } else if (Arg == "--transaction-bytes" && I + 1 < Argc) {
      if (!numberArg(Device.TransactionBytes, "--transaction-bytes",
                     Argv[++I]))
        return 2;
    } else if (Arg == "--chaos-seed" && I + 1 < Argc) {
      if (!numberArg(Options.Chaos.Seed, "--chaos-seed", Argv[++I]))
        return 2;
      if (Options.Chaos.Sites == 0)
        Options.Chaos.Sites = support::AllChaosSites;
    } else if (Arg == "--chaos-sites" && I + 1 < Argc) {
      std::string List = Argv[++I];
      std::optional<uint32_t> Sites = support::parseChaosSites(List);
      if (!Sites) {
        std::fprintf(stderr, "error: unknown chaos site in '%s'\n",
                     List.c_str());
        return 2;
      }
      Options.Chaos.Sites = *Sites;
    } else if (Arg[0] != '-') {
      if (Spec.empty()) {
        Spec = Arg;
      } else if (!numberArg(Extent, "extent", Arg, /*Positive=*/true)) {
        return 2;
      }
    } else {
      printUsage(Argv[0]);
      return 2;
    }
  }
  if (BatchPath.empty() && (!TelemetryJsonPath.empty() || SawStatsInterval)) {
    // Both flags observe the GenerationService, which only batch mode
    // drives; outside it they indicate a misassembled command line.
    std::fprintf(stderr, "error: --telemetry-json and --stats-interval-ms "
                         "require --batch-file\n");
    return 2;
  }
  if (!BatchPath.empty())
    return runBatch(BatchPath, Device, Options, Jobs, RequestDeadlineMs,
                    Quiet, TelemetryJsonPath, StatsIntervalMs);
  if (Spec.empty()) {
    printUsage(Argv[0]);
    return 2;
  }

  support::TraceSession Session;
  support::ScopedTraceActivation Activation(
      TracePath.empty() ? nullptr : &Session);
  if (!TracePath.empty())
    Options.Trace = &Session;

  double ParseMs = 0.0;
  ErrorOr<ir::Contraction> TC = [&]() {
    support::TraceSpan Span("cogent.parse");
    Span.arg("spec", Spec);
    ErrorOr<ir::Contraction> Parsed =
        ir::Contraction::parseUniform(Spec, Extent);
    ParseMs = Span.elapsedMs();
    return Parsed;
  }();
  if (!TC) {
    std::fprintf(stderr, "error: %s\n", TC.error().renderWithCode().c_str());
    return 1;
  }

  core::Cogent Generator(Device);
  ErrorOr<core::GenerationResult> Result = Generator.generate(*TC, Options);
  if (!Result) {
    std::fprintf(stderr, "error: %s\n",
                 Result.error().renderWithCode().c_str());
    return 1;
  }
  Result->Phases.ParseMs = ParseMs;

  if (!MetricsPath.empty()) {
    std::string Json = core::renderMetricsJson(*TC, *Result, Device);
    std::FILE *File = std::fopen(MetricsPath.c_str(), "w");
    bool Ok = File != nullptr;
    if (Ok) {
      Ok = std::fwrite(Json.data(), 1, Json.size(), File) == Json.size();
      Ok &= std::fclose(File) == 0;
    }
    if (!Ok) {
      std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                   MetricsPath.c_str());
      return 1;
    }
  }
  if (!TracePath.empty() && !Session.writeChromeTrace(TracePath)) {
    std::fprintf(stderr, "error: cannot write trace file '%s'\n",
                 TracePath.c_str());
    return 1;
  }

  // A rescued verification failure is still a success (exit 0): the
  // verifier rejected candidates but a later attempt or fallback rung
  // produced a verified kernel. One notice line marks it for log readers.
  if (!Quiet && Result->verifierRejections() > 0)
    std::fprintf(stderr,
                 "# notice: plan verifier rejected %llu candidate(s); "
                 "rescued — emitted kernel passed verification "
                 "(fallback '%s')\n",
                 static_cast<unsigned long long>(Result->verifierRejections()),
                 core::fallbackLevelName(Result->Fallback));
  if (!Quiet && Result->lintRejections() > 0)
    std::fprintf(stderr,
                 "# notice: lint gate rejected %llu emitted source(s); "
                 "rescued — emitted kernel lints clean (fallback '%s')\n",
                 static_cast<unsigned long long>(Result->lintRejections()),
                 core::fallbackLevelName(Result->Fallback));
  if (!Quiet)
    for (const analysis::LintFinding &Finding : Result->LintFindings)
      std::fprintf(stderr, "# lint: %s\n", Finding.render().c_str());
  if (!Quiet) {
    std::fprintf(stderr,
                 "# %s on %s: %llu candidates -> %llu survivors in %.1f ms\n",
                 TC->toStringWithExtents().c_str(), Device.Name.c_str(),
                 static_cast<unsigned long long>(Result->Stats.RawConfigs),
                 static_cast<unsigned long long>(Result->Stats.Survivors),
                 Result->ElapsedMs);
    if (Result->Stats.truncated())
      std::fprintf(stderr,
                   "# warning: search truncated by budget (%s) after %llu of "
                   "%llu candidates; ranking is best-effort\n",
                   core::searchStatusName(Result->Stats.Status),
                   static_cast<unsigned long long>(Result->Stats.Examined),
                   static_cast<unsigned long long>(Result->Stats.RawConfigs));
    if (Result->Fallback != core::FallbackLevel::None)
      std::fprintf(stderr, "# warning: fallback level '%s' produced this "
                           "kernel (no configuration survived the search)\n",
                   core::fallbackLevelName(Result->Fallback));
    if (Result->SourceTruncated)
      std::fprintf(stderr, "# warning: emission stopped early by the source "
                           "byte budget\n");
    for (size_t I = 0; I < Result->Kernels.size(); ++I) {
      const core::GeneratedKernel &Kernel = Result->Kernels[I];
      std::fprintf(stderr,
                   "# rank %zu: %s  cost=%.3g  predicted=%.0f GFLOPS\n",
                   I + 1, Kernel.Config.toString().c_str(),
                   Kernel.Cost.total(), Kernel.Predicted.Gflops);
    }
  }
  // A TTGT-fallback kernel targets the matricized GEMM contraction, so all
  // re-planning must use that, not the original spec.
  const ir::Contraction &PlanTC =
      Result->Fallback == core::FallbackLevel::TtgtBaseline
          ? *Result->FallbackContraction
          : *TC;
  if (Explain && !Quiet)
    std::fprintf(stderr, "%s\n",
                 core::explainKernel(PlanTC, Result->best(), Device,
                                     Options.ElementSize)
                     .c_str());
  if (ExplainLint && !Quiet) {
    core::KernelPlan Plan(PlanTC, Result->best().Config);
    analysis::LintOptions LintOpts = Options.Lint;
    LintOpts.ElementSize = Options.ElementSize;
    LintOpts.TransactionBytes = Device.TransactionBytes;
    std::fprintf(stderr, "%s\n",
                 analysis::explainLint(
                     Plan, Result->best().Source.KernelSource, LintOpts)
                     .c_str());
  }
  if (ExplainRaces && !Quiet) {
    core::KernelPlan Plan(PlanTC, Result->best().Config);
    std::fprintf(
        stderr, "%s\n",
        analysis::explainRaces(Plan, Result->best().Source.KernelSource)
            .c_str());
  }
  if (ExplainDataflow && !Quiet) {
    ErrorOr<analysis::KernelModel> Model =
        analysis::parseKernelSource(Result->best().Source.KernelSource);
    if (!Model) {
      std::fprintf(stderr, "error: %s\n",
                   Model.error().renderWithCode().c_str());
      return 1;
    }
    ErrorOr<analysis::DataflowInfo> Flow = analysis::buildDataflow(*Model);
    if (!Flow) {
      std::fprintf(stderr, "error: %s\n",
                   Flow.error().renderWithCode().c_str());
      return 1;
    }
    std::fprintf(stderr, "%s\n",
                 analysis::explainDataflow(*Model, *Flow).c_str());
  }
  if (UseOpenCl || UseDoubleBuffer) {
    // Re-emit the winning plan in the requested dialect/pipeline.
    core::KernelPlan Plan(PlanTC, Result->best().Config);
    core::CodeGenOptions CG;
    CG.ElementType = Options.ElementSize == 8 ? "double" : "float";
    CG.DoubleBuffer = UseDoubleBuffer;
    core::GeneratedSource Source =
        UseOpenCl ? core::emitOpenCl(Plan, CG) : core::emitCuda(Plan, CG);
    if (!Quiet)
      std::printf("%s\n%s", Source.KernelSource.c_str(),
                  Source.DriverSource.c_str());
    return 0;
  }
  if (!Quiet)
    std::printf("%s\n%s", Result->best().Source.KernelSource.c_str(),
                Result->best().Source.DriverSource.c_str());
  return 0;
}

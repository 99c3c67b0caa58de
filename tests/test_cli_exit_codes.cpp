//===- tests/test_cli_exit_codes.cpp - CLI exit-code discipline ------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the cogent_cli exit-code contract by invoking the real binary
/// (path injected via COGENT_CLI_PATH at configure time):
///
///   0  success — including verifier failures rescued by the fallback
///      chain, which print a one-line "# notice:" unless --quiet;
///   1  typed rejection (InvalidDeviceSpec, VerificationFailed, parse
///      errors) rendered as "error: <Code>: ...";
///   2  usage errors;
///   3  batch mode (--batch-file) completed but at least one request
///      failed with a typed per-request error.
///
//===----------------------------------------------------------------------===//

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <sys/wait.h>

namespace {

struct CliRun {
  int ExitCode = -1;
  std::string Output; // stdout + stderr interleaved
};

/// Runs the CLI with \p Args, capturing combined output and the exit code.
CliRun runCli(const std::string &Args) {
  CliRun Run;
  std::string Command = std::string(COGENT_CLI_PATH) + " " + Args + " 2>&1";
  std::FILE *Pipe = popen(Command.c_str(), "r");
  if (!Pipe)
    return Run;
  char Buffer[4096];
  size_t Got;
  while ((Got = std::fread(Buffer, 1, sizeof(Buffer), Pipe)) > 0)
    Run.Output.append(Buffer, Got);
  int Status = pclose(Pipe);
  if (WIFEXITED(Status))
    Run.ExitCode = WEXITSTATUS(Status);
  return Run;
}

TEST(CliExitCodes, CleanRunExitsZero) {
  CliRun Run = runCli("ab-ac-cb 24 --quiet");
  EXPECT_EQ(Run.ExitCode, 0) << Run.Output;
  EXPECT_EQ(Run.Output.find("# notice:"), std::string::npos) << Run.Output;
}

TEST(CliExitCodes, UnrescuedVerificationFailureExitsNonZeroTyped) {
  // 8 bytes of staging memory passes DeviceSpec::validate but cannot host
  // even the TTGT kernel: the verifier rejects every fallback rung and the
  // CLI must exit non-zero with the typed error rendered.
  CliRun Run = runCli("ab-ac-cb 24 --smem-per-block 8");
  EXPECT_EQ(Run.ExitCode, 1) << Run.Output;
  EXPECT_NE(Run.Output.find("error: VerificationFailed"), std::string::npos)
      << Run.Output;
}

TEST(CliExitCodes, InvalidDeviceExitsNonZeroTyped) {
  CliRun Run = runCli("ab-ac-cb 24 --smem-per-block 0");
  EXPECT_EQ(Run.ExitCode, 1) << Run.Output;
  EXPECT_NE(Run.Output.find("error: InvalidDeviceSpec"), std::string::npos)
      << Run.Output;
}

/// Writes \p Contents to a scratch batch file and returns its path.
std::string writeBatchFile(const std::string &Name,
                           const std::string &Contents) {
  std::string Path =
      ::testing::TempDir() + "cogent_cli_batch_" + Name + ".txt";
  std::ofstream Out(Path, std::ios::trunc);
  Out << Contents;
  return Path;
}

TEST(CliExitCodes, UsageErrorExitsTwo) {
  EXPECT_EQ(runCli("ab-ac-cb 24 --no-such-flag").ExitCode, 2);
  EXPECT_EQ(runCli("").ExitCode, 2);
  EXPECT_EQ(runCli("ab-ac-cb 24 --chaos-sites no-such-site").ExitCode, 2);
  // Numeric values are parsed whole and in range, never coerced: these
  // used to run as "no deadline", TopK = 2^64 - 3, extent 32 and seed 12.
  for (const char *Args :
       {"ab-ac-cb 24 --deadline-ms foo", "ab-ac-cb 24 --topk -3",
        "ab-ac-cb 32x", "ab-ac-cb 24 --chaos-seed 12abc",
        "ab-ac-cb 24 --max-configs 1.5", "ab-ac-cb 24 --deadline-ms nan",
        "ab-ac-cb 24 --smem-per-block 99999999999", "ab-ac-cb 0",
        "ab-ac-cb 24 --deadline-ms ''"}) {
    CliRun Run = runCli(Args);
    EXPECT_EQ(Run.ExitCode, 2) << Args << "\n" << Run.Output;
    EXPECT_NE(Run.Output.find("error: "), std::string::npos) << Args;
  }
  // Removed flags are unknown flags.
  EXPECT_EQ(runCli("ab-ac-cb 24 --pressure-ranking").ExitCode, 2);
  // --jobs is the worker-thread count: 0 would start no worker and hang
  // the batch, and an unbounded value would start that many threads.
  // These exit before any worker starts.
  std::string Path = writeBatchFile("jobs", "ab-ac-cb 24\n");
  for (const char *Jobs : {"0", "257", "4294967296"}) {
    CliRun Run = runCli("--batch-file " + Path + " --jobs " + Jobs);
    EXPECT_EQ(Run.ExitCode, 2) << Jobs << "\n" << Run.Output;
    EXPECT_NE(Run.Output.find("error: --jobs"), std::string::npos) << Jobs;
  }
  std::remove(Path.c_str());
}

TEST(CliExitCodes, BatchAllOkExitsZero) {
  std::string Path = writeBatchFile("ok", "# warm then duplicate\n"
                                          "ab-ac-cb 24\n"
                                          "ab-ac-cb 24\n"
                                          "\n"
                                          "abc-abd-dc 12\n");
  CliRun Run = runCli("--batch-file " + Path + " --jobs 2");
  EXPECT_EQ(Run.ExitCode, 0) << Run.Output;
  EXPECT_NE(Run.Output.find("# batch:"), std::string::npos) << Run.Output;
  std::remove(Path.c_str());
}

TEST(CliExitCodes, BatchWithTypedPerRequestErrorExitsThree) {
  // A malformed spec fails its own request with a typed error but must
  // not sink the batch: the good line still completes and the summary
  // exit code is 3, distinguishable from infrastructure failure (1).
  std::string Path = writeBatchFile("mixed", "ab-ac-cb 24\n"
                                             "not-a-valid-spec!! 24\n");
  CliRun Run = runCli("--batch-file " + Path);
  EXPECT_EQ(Run.ExitCode, 3) << Run.Output;
  EXPECT_NE(Run.Output.find("# ok:"), std::string::npos) << Run.Output;
  EXPECT_NE(Run.Output.find("error:"), std::string::npos) << Run.Output;
  std::remove(Path.c_str());
}

TEST(CliExitCodes, BatchBadExtentLineExitsThree) {
  std::string Path = writeBatchFile("extent", "ab-ac-cb 0\n"
                                              "ab-ac-cb 16\n"
                                              "ab-ac-cb 24 garbage\n");
  CliRun Run = runCli("--batch-file " + Path + " --quiet");
  EXPECT_EQ(Run.ExitCode, 3) << Run.Output;
  EXPECT_NE(Run.Output.find("error: line 1"), std::string::npos)
      << Run.Output;
  EXPECT_NE(Run.Output.find("error: line 3: InvalidSpec"), std::string::npos)
      << Run.Output;
  std::remove(Path.c_str());
}

TEST(CliExitCodes, BatchUnreadableFileExitsOne) {
  CliRun Run = runCli("--batch-file /no/such/dir/batch.txt");
  EXPECT_EQ(Run.ExitCode, 1) << Run.Output;
  EXPECT_NE(Run.Output.find("error:"), std::string::npos) << Run.Output;
}

TEST(CliExitCodes, BatchUsageErrorsExitTwo) {
  std::string Path = writeBatchFile("usage", "ab-ac-cb 16\n");
  EXPECT_EQ(runCli("--batch-file " + Path + " --jobs -1").ExitCode, 2);
  EXPECT_EQ(runCli("--batch-file").ExitCode, 2); // missing operand
  std::remove(Path.c_str());
}

TEST(CliExitCodes, BatchRejectsSingleRequestOutputFlags) {
  // These outputs describe one generate() call; batch mode used to accept
  // them, exit 0 and write nothing.
  std::string Path = writeBatchFile("outputs", "ab-ac-cb 16\n");
  std::string Trace = ::testing::TempDir() + "cogent_cli_batch_trace.json";
  std::string Metrics =
      ::testing::TempDir() + "cogent_cli_batch_metrics.json";
  std::remove(Trace.c_str());
  std::remove(Metrics.c_str());
  for (const std::string &Flag :
       {"--trace=" + Trace, "--metrics=" + Metrics, std::string("--explain"),
        std::string("--explain-lint"), std::string("--explain-races"),
        std::string("--explain-dataflow")}) {
    CliRun Run = runCli("--batch-file " + Path + " " + Flag);
    EXPECT_EQ(Run.ExitCode, 2) << Flag << "\n" << Run.Output;
    EXPECT_NE(Run.Output.find("not supported with --batch-file"),
              std::string::npos)
        << Flag << "\n" << Run.Output;
  }
  EXPECT_FALSE(std::ifstream(Trace).good());
  EXPECT_FALSE(std::ifstream(Metrics).good());
  std::remove(Path.c_str());
}

TEST(CliExitCodes, BatchRequestDeadlineStillCompletesBatch) {
  // A microscopic per-request deadline forces the degraded rungs, never
  // a hang or an unexplained failure: the batch still exits 0.
  std::string Path = writeBatchFile("deadline", "ab-ac-cb 24\n"
                                                "abc-abd-dc 12\n");
  CliRun Run =
      runCli("--batch-file " + Path + " --request-deadline-ms 0.01");
  EXPECT_EQ(Run.ExitCode, 0) << Run.Output;
  std::remove(Path.c_str());
}

TEST(CliExitCodes, ReEmittedKernelIsGatedAndExplained) {
  // --double-buffer and --opencl print a re-emission of the winning plan.
  // That source goes through verifySource and strict lint before it is
  // printed (a clean re-emission exits 0 with no lint lines), and every
  // --explain-* flag describes it rather than the single-buffered CUDA
  // kernel generate() produced.
  CliRun Double = runCli("abcd-aebf-dfce 24 --double-buffer --explain-lint "
                         "--explain-races --explain-dataflow");
  EXPECT_EQ(Double.ExitCode, 0) << Double.Output;
  EXPECT_EQ(Double.Output.find("# lint:"), std::string::npos) << Double.Output;
  EXPECT_NE(Double.Output.find("double-buffered)"), std::string::npos)
      << Double.Output;
  EXPECT_NE(Double.Output.find("findings: none"), std::string::npos)
      << Double.Output;
  EXPECT_NE(Double.Output.find("  buf: "), std::string::npos)
      << Double.Output;
  EXPECT_NE(Double.Output.find(": required"), std::string::npos)
      << Double.Output;
  EXPECT_EQ(Double.Output.find(": redundant"), std::string::npos)
      << Double.Output;
  EXPECT_NE(Double.Output.find("int buf = 0;"), std::string::npos)
      << Double.Output;

  CliRun OpenCl = runCli("abcd-aebf-dfce 24 --opencl --explain-lint");
  EXPECT_EQ(OpenCl.ExitCode, 0) << OpenCl.Output;
  EXPECT_NE(OpenCl.Output.find("(OpenCL dialect"), std::string::npos)
      << OpenCl.Output;
  EXPECT_NE(OpenCl.Output.find("findings: none"), std::string::npos)
      << OpenCl.Output;

  CliRun Single = runCli("abcd-aebf-dfce 24 --explain-lint");
  EXPECT_EQ(Single.ExitCode, 0) << Single.Output;
  EXPECT_NE(Single.Output.find("single-buffered)"), std::string::npos)
      << Single.Output;
}

#ifdef COGENT_CHAOS_ENABLED

TEST(CliExitCodes, RescuedVerifierFailureExitsZeroWithNotice) {
  // Under an all-sites chaos storm some seed in a short deterministic
  // range must provoke verifier rejections that the pipeline rescues; the
  // rescued run exits 0 and prints the one-line notice.
  bool SawNotice = false;
  for (int Seed = 1; Seed <= 32 && !SawNotice; ++Seed) {
    CliRun Run = runCli("ab-ac-cb 24 --chaos-seed " + std::to_string(Seed) +
                        " --chaos-sites all");
    ASSERT_EQ(Run.ExitCode, 0) << "seed " << Seed << "\n" << Run.Output;
    if (Run.Output.find("# notice:") != std::string::npos) {
      SawNotice = true;
      // The same run under --quiet suppresses the notice but keeps exit 0.
      CliRun Quiet = runCli("ab-ac-cb 24 --chaos-seed " +
                            std::to_string(Seed) +
                            " --chaos-sites all --quiet");
      EXPECT_EQ(Quiet.ExitCode, 0) << Quiet.Output;
      EXPECT_EQ(Quiet.Output.find("# notice:"), std::string::npos)
          << Quiet.Output;
    }
  }
  EXPECT_TRUE(SawNotice)
      << "no seed in 1..32 provoked a rescued verifier rejection";
}

#endif // COGENT_CHAOS_ENABLED

} // namespace

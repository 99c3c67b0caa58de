//===- bench/bench_codegen_time.cpp - Code-generation-time microbench -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the generator itself: end-to-end
/// generation, the compact enumeration and ranking that generate() runs,
/// one cost-model evaluation and CUDA emission. The paper
/// contrasts COGENT's model-driven seconds with TC's hours (~8514 s of
/// autotuning for SD2_1); these timings quantify our side of that claim.
///
//===----------------------------------------------------------------------===//

#include "core/CodeGen.h"
#include "core/Cogent.h"
#include "core/CostModel.h"
#include "core/Enumerator.h"
#include "core/KernelPlan.h"
#include "gpu/DeviceSpec.h"
#include "suite/TccgSuite.h"
#include "verify/PlanVerifier.h"

#include <benchmark/benchmark.h>

using namespace cogent;

namespace {

ir::Contraction entryContraction(int Id) {
  return suite::suiteEntry(Id).contraction();
}

void BM_GenerateEq1(benchmark::State &State) {
  gpu::DeviceSpec Device = gpu::makeV100();
  core::Cogent Generator(Device);
  ir::Contraction TC = entryContraction(12);
  for (auto _ : State) {
    ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
    benchmark::DoNotOptimize(Result);
  }
}
BENCHMARK(BM_GenerateEq1)->Unit(benchmark::kMillisecond);

void BM_GenerateSd2_1(benchmark::State &State) {
  gpu::DeviceSpec Device = gpu::makeV100();
  core::Cogent Generator(Device);
  ir::Contraction TC = entryContraction(31);
  for (auto _ : State) {
    ErrorOr<core::GenerationResult> Result = Generator.generate(TC);
    benchmark::DoNotOptimize(Result);
  }
}
BENCHMARK(BM_GenerateSd2_1)->Unit(benchmark::kMillisecond);

void BM_EnumerateSd2_1(benchmark::State &State) {
  gpu::DeviceSpec Device = gpu::makeV100();
  ir::Contraction TC = entryContraction(31);
  core::Enumerator Enum(TC, Device);
  for (auto _ : State) {
    core::CandidateSet Candidates = Enum.search();
    benchmark::DoNotOptimize(Candidates);
  }
}
BENCHMARK(BM_EnumerateSd2_1)->Unit(benchmark::kMillisecond);

void BM_CostModelSingleConfig(benchmark::State &State) {
  gpu::DeviceSpec Device = gpu::makeV100();
  ir::Contraction TC = entryContraction(31);
  core::Enumerator Enum(TC, Device);
  std::vector<core::KernelConfig> Configs = Enum.enumerate();
  for (auto _ : State) {
    core::TransactionCost Cost =
        core::estimateTransactions(TC, Configs.front(), 8);
    benchmark::DoNotOptimize(Cost);
  }
}
BENCHMARK(BM_CostModelSingleConfig);

void BM_RankSd2_1(benchmark::State &State) {
  gpu::DeviceSpec Device = gpu::makeV100();
  ir::Contraction TC = entryContraction(31);
  const core::CandidateSet Candidates = core::Enumerator(TC, Device).search();
  verify::PlanVerifier Verifier(Device, 8);
  for (auto _ : State) {
    std::vector<core::RankedCandidate> Ranking = core::rankCandidates(
        TC, Candidates, Verifier, /*TopK=*/1, [](const Error &) {});
    benchmark::DoNotOptimize(Ranking);
  }
}
BENCHMARK(BM_RankSd2_1)->Unit(benchmark::kMicrosecond);

void BM_EmitCudaSd2_1(benchmark::State &State) {
  gpu::DeviceSpec Device = gpu::makeV100();
  ir::Contraction TC = entryContraction(31);
  core::Enumerator Enum(TC, Device);
  std::vector<core::KernelConfig> Configs = Enum.enumerate();
  core::KernelPlan Plan(TC, Configs.front());
  for (auto _ : State) {
    core::GeneratedSource Source = core::emitCuda(Plan);
    benchmark::DoNotOptimize(Source);
  }
}
BENCHMARK(BM_EmitCudaSd2_1)->Unit(benchmark::kMicrosecond);

void BM_GenerateWholeSuite(benchmark::State &State) {
  gpu::DeviceSpec Device = gpu::makeV100();
  core::Cogent Generator(Device);
  for (auto _ : State) {
    for (const suite::SuiteEntry &Entry : suite::tccgSuite()) {
      ErrorOr<core::GenerationResult> Result =
          Generator.generate(Entry.contraction());
      benchmark::DoNotOptimize(Result);
    }
  }
}
BENCHMARK(BM_GenerateWholeSuite)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();

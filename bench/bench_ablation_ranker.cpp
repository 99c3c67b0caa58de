//===- bench/bench_ablation_ranker.cpp - Selection-strategy ablation --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablation C: compares the two candidate-selection strategies the system
/// offers — (1) pure Algorithm-3 cost-model ranking (the paper) and (2)
/// simulate-the-top-K refinement (§VI) — against the best configuration in
/// a simulated sample, at simulation-friendly sizes.
///
//===----------------------------------------------------------------------===//

#include "core/Cogent.h"
#include "core/KernelPlan.h"
#include "gpu/Autotune.h"
#include "gpu/KernelSimulator.h"
#include "suite/TccgSuite.h"
#include "support/Random.h"
#include "tensor/Reference.h"

#include <algorithm>
#include <cstdio>

using namespace cogent;
using ir::Operand;

namespace {

/// Simulated GFLOPS of \p Config on the scaled contraction.
double simulatedGflops(const ir::Contraction &TC,
                       const core::KernelConfig &Config,
                       const gpu::DeviceSpec &Device) {
  core::KernelPlan Plan(TC, Config.clampedTo(TC));
  Rng Generator(5150);
  tensor::Tensor<double> A = tensor::makeOperand<double>(TC, Operand::A);
  tensor::Tensor<double> B = tensor::makeOperand<double>(TC, Operand::B);
  A.fillRandom(Generator);
  B.fillRandom(Generator);
  tensor::Tensor<double> C = tensor::makeOperand<double>(TC, Operand::C);
  gpu::SimResult Sim = gpu::simulateKernel(Plan, C, A, B);
  gpu::KernelProfile Profile = gpu::makeProfileFromSim(Plan, Device, 8, Sim);
  return gpu::estimateKernelTime(Device, gpu::makeCalibration(Device),
                                 Profile)
      .Gflops;
}

} // namespace

int main() {
  gpu::DeviceSpec Device = gpu::makeV100();
  core::Cogent Generator(Device);
  constexpr int64_t MeasureExtent = 10;
  const int SuiteIds[] = {1, 9, 12, 20, 31, 40};

  std::printf("Ablation C — candidate-selection strategies at scaled sizes "
              "(extent<=%lld, V100, simulated GFLOPS)\n",
              static_cast<long long>(MeasureExtent));
  std::printf("%-9s %12s %12s %12s\n", "name", "cost model", "refine topK",
              "sample best");

  for (int Id : SuiteIds) {
    const suite::SuiteEntry &Entry = suite::suiteEntry(Id);
    ir::Contraction TC = Entry.contractionScaled(MeasureExtent);

    core::CogentOptions Options;
    Options.TopK = 12;
    Options.Enumeration.MinThreadBlocks = 1;
    Options.Enumeration.MinOccupancy = 0.0;
    ErrorOr<core::GenerationResult> Result = Generator.generate(TC, Options);
    if (!Result) {
      std::fprintf(stderr, "%s: %s\n", Entry.Name.c_str(),
                   Result.errorMessage().c_str());
      continue;
    }

    // (1) cost-model pick = rank 0.
    double CostPick = simulatedGflops(TC, Result->best().Config, Device);

    // (2) simulate the whole top-K and keep the winner.
    gpu::RefinementResult Refined =
        gpu::refineTopKBySimulation(TC, *Result, Device, 8, MeasureExtent);
    double RefinedPick = simulatedGflops(
        TC, Result->Kernels[Refined.WinnerIndex].Config, Device);

    double SampleBest = 0.0;
    for (const core::GeneratedKernel &Kernel : Result->Kernels)
      SampleBest =
          std::max(SampleBest, simulatedGflops(TC, Kernel.Config, Device));

    std::printf("%-9s %12.1f %12.1f %12.1f\n", Entry.Name.c_str(), CostPick,
                RefinedPick, SampleBest);
  }
  std::printf("\nrefine-topK always attains the sample best by "
              "construction; the gap between the cost-model column and the "
              "best column is what §VI's refinement recovers.\n");
  return 0;
}

//===- verify/PlanVerifier.cpp --------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "verify/PlanVerifier.h"

#include "gpu/Occupancy.h"
#include "support/Counters.h"

#include <cmath>
#include <set>

using namespace cogent;
using namespace cogent::verify;

COGENT_COUNTER(NumPlansVerified, "verifier.plans-checked",
               "KernelPlans run through PlanVerifier::verifyPlan");
COGENT_COUNTER(NumVerifierRejections, "verifier.rejections",
               "Verification failures across all PlanVerifier checks");

static Error fail(std::string Message) {
  ++NumVerifierRejections;
  return Error(ErrorCode::VerificationFailed, std::move(Message));
}

double verify::transactionLowerBound(const ir::Contraction &TC,
                                     unsigned ElementSize,
                                     unsigned TransactionBytes) {
  // Derived from extents alone — deliberately not via estimateTransactions,
  // whose output is what this bound cross-examines.
  double Bytes = 0.0;
  for (ir::Operand Op : {ir::Operand::A, ir::Operand::B, ir::Operand::C})
    Bytes += static_cast<double>(TC.numElements(Op)) * ElementSize;
  return Bytes / static_cast<double>(TransactionBytes);
}

ErrorOr<void> PlanVerifier::verifyPlan(const core::KernelPlan &Plan) const {
  ++NumPlansVerified;
  const ir::Contraction &TC = Plan.contraction();
  const core::KernelConfig &Config = Plan.config();

  std::string ConfigIssue = Config.validate(TC);
  if (!ConfigIssue.empty())
    return fail("config rejected: " + ConfigIssue + " [" + Config.toString() +
                "]");

  // Every loop index must be decomposed exactly once — externals across the
  // grid, internals across steps — with a consistent tile count.
  std::set<char> Seen;
  auto CheckDim = [&](const core::PlanDim &Dim,
                      bool External) -> std::optional<Error> {
    if (!Seen.insert(Dim.Name).second)
      return fail(std::string("index '") + Dim.Name +
                  "' decomposed more than once");
    if (TC.isExternal(Dim.Name) != External)
      return fail(std::string("index '") + Dim.Name +
                  "' placed in the wrong decomposition for its kind");
    if (Dim.Extent != TC.extent(Dim.Name))
      return fail(std::string("index '") + Dim.Name + "' extent " +
                  std::to_string(Dim.Extent) +
                  " disagrees with the contraction's " +
                  std::to_string(TC.extent(Dim.Name)));
    if (Dim.Tile < 1 || Dim.Tile > Dim.Extent)
      return fail(std::string("index '") + Dim.Name + "' tile " +
                  std::to_string(Dim.Tile) + " outside [1, " +
                  std::to_string(Dim.Extent) + "]");
    int64_t Expected = (Dim.Extent + Dim.Tile - 1) / Dim.Tile;
    if (Dim.NumTiles != Expected)
      return fail(std::string("index '") + Dim.Name + "' tile count " +
                  std::to_string(Dim.NumTiles) + " != ceil(" +
                  std::to_string(Dim.Extent) + "/" +
                  std::to_string(Dim.Tile) + ") = " +
                  std::to_string(Expected));
    return std::nullopt;
  };
  int64_t Blocks = 1, Steps = 1;
  for (const core::PlanDim &Dim : Plan.gridDims()) {
    if (std::optional<Error> E = CheckDim(Dim, /*External=*/true))
      return std::move(*E);
    Blocks *= Dim.NumTiles;
  }
  for (const core::PlanDim &Dim : Plan.stepDims()) {
    if (std::optional<Error> E = CheckDim(Dim, /*External=*/false))
      return std::move(*E);
    Steps *= Dim.NumTiles;
  }
  for (char Name : TC.allIndices())
    if (!Seen.count(Name))
      return fail(std::string("index '") + Name +
                  "' missing from the grid/step decomposition");
  if (Blocks != Plan.numBlocks())
    return fail("grid tile product " + std::to_string(Blocks) +
                " disagrees with numBlocks() = " +
                std::to_string(Plan.numBlocks()));
  if (Steps != Plan.numSteps())
    return fail("step tile product " + std::to_string(Steps) +
                " disagrees with numSteps() = " +
                std::to_string(Plan.numSteps()));

  // Device-resource budgets, recomputed from the config's own footprint.
  int64_t Threads = Plan.threadsPerBlock();
  if (Threads < 1 || Threads > Device.MaxThreadsPerBlock)
    return fail("block of " + std::to_string(Threads) +
                " threads outside [1, " +
                std::to_string(Device.MaxThreadsPerBlock) + "] on " +
                Device.Name);
  int64_t SmemBytes = Config.smemBytes(ElementSize);
  if (SmemBytes > static_cast<int64_t>(Device.SharedMemPerBlock))
    return fail("staged slices need " + std::to_string(SmemBytes) +
                " B shared memory, over the per-block limit of " +
                std::to_string(Device.SharedMemPerBlock) + " B on " +
                Device.Name);
  unsigned Regs = Config.registersPerThread(ElementSize);
  if (Regs > Device.MaxRegistersPerThread)
    return fail("estimated " + std::to_string(Regs) +
                " registers/thread, over the cap of " +
                std::to_string(Device.MaxRegistersPerThread) + " on " +
                Device.Name);

  gpu::BlockResources Block;
  Block.ThreadsPerBlock = static_cast<unsigned>(Threads);
  Block.SharedMemBytes = static_cast<unsigned>(SmemBytes);
  Block.RegistersPerThread = Regs;
  gpu::OccupancyResult Occ = gpu::computeOccupancy(Device, Block);
  if (Occ.BlocksPerSM < 1)
    return fail(std::string("block does not fit on an SM (limiter: ") +
                Occ.Limiter + ") on " + Device.Name);
  return {};
}

ErrorOr<void> PlanVerifier::verifyCost(const ir::Contraction &TC,
                                       const core::TransactionCost &Cost)
    const {
  double Total = Cost.total();
  if (!std::isfinite(Total) || Cost.LoadA < 0.0 || Cost.LoadB < 0.0 ||
      Cost.StoreC < 0.0)
    return fail("transaction cost is not a finite non-negative number");
  double LowerBound =
      transactionLowerBound(TC, ElementSize, Device.TransactionBytes);
  // 1% slack plus half a transaction absorbs the bound's lack of per-run
  // ceil rounding; anything below that claims impossible traffic.
  if (Total + 0.5 < 0.99 * LowerBound)
    return fail("claimed cost " + std::to_string(Total) +
                " transactions is below the compulsory-traffic bound of " +
                std::to_string(LowerBound));
  return {};
}

ErrorOr<void> PlanVerifier::verifyCost(const core::KernelPlan &Plan,
                                       const core::TransactionCost &Cost)
    const {
  return verifyCost(Plan.contraction(), Cost);
}

ErrorOr<void> PlanVerifier::verifySource(const core::GeneratedSource &Source)
    const {
  if (Source.KernelSource.empty())
    return fail("emitted kernel source is empty");
  if (Source.KernelName.empty() ||
      Source.KernelSource.find(Source.KernelName) == std::string::npos)
    return fail("emitted source does not define kernel '" +
                Source.KernelName + "'");
  int64_t Depth = 0;
  for (char Ch : Source.full()) {
    if (Ch == '{')
      ++Depth;
    else if (Ch == '}' && --Depth < 0)
      return fail("emitted source has unbalanced braces (extra '}')");
  }
  if (Depth != 0)
    return fail("emitted source has unbalanced braces (" +
                std::to_string(Depth) + " unclosed '{'), likely truncated");
  return {};
}

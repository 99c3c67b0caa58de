//===- core/CostModel.cpp ----------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/CostModel.h"

#include "support/Counters.h"
#include "support/FaultInjection.h"

#include <algorithm>
#include <array>
#include <cassert>

using namespace cogent;
using namespace cogent::core;

COGENT_COUNTER(NumCostEvaluations, "costmodel.evaluations",
               "Algorithm-3 transaction estimates computed");
using cogent::ir::Operand;

static int64_t ceilDiv(int64_t X, int64_t Y) { return (X + Y - 1) / Y; }

/// Transactions needed to move one staged slice: the slice decomposes into
/// SliceElems / Run contiguous runs, and each run of Run elements costs
/// ceil(Run / ElemsPerTransaction) transactions (the paper's
/// min(size_Cont, size_TBx) row treatment, generalized with the 128-byte
/// granularity cap).
static double transactionsPerSlice(int64_t SliceElems, int64_t Run,
                                   int64_t ElemsPerTransaction) {
  assert(SliceElems > 0 && Run > 0 && ElemsPerTransaction > 0);
  Run = std::min(Run, SliceElems);
  int64_t NumRuns = ceilDiv(SliceElems, Run);
  int64_t TransPerRun = ceilDiv(Run, ElemsPerTransaction);
  return static_cast<double>(NumRuns) * static_cast<double>(TransPerRun);
}

/// cal_Cont of \p Op's tile, walked in \p Op's index order (FVI first): a
/// dimension extends the run only while every faster one was covered in
/// full. The same walk as KernelPlan::contiguousRun over its slice dims.
static int64_t contiguousRunOf(const ir::Contraction &TC, Operand Op,
                               const std::array<int64_t, 26> &Tile) {
  int64_t Run = 1;
  for (char Name : TC.indices(Op)) {
    int64_t T = Tile[static_cast<size_t>(Name - 'a')];
    Run *= T;
    if (T < TC.extent(Name))
      break;
  }
  return Run;
}

TransactionCost cogent::core::estimateTransactions(const ir::Contraction &TC,
                                                   const TileTable &Tiles,
                                                   unsigned ElementSize,
                                                   unsigned TransactionBytes) {
  assert((ElementSize == 4 || ElementSize == 8) && "unsupported element size");
  ++NumCostEvaluations;
  int64_t ElemsPerTrans = TransactionBytes / ElementSize;
  const std::array<int64_t, 26> &Tile = Tiles.Tile;
  auto sliceElements = [&](Operand Op) {
    int64_t Elems = 1;
    for (char Name : TC.indices(Op))
      Elems *= Tile[static_cast<size_t>(Name - 'a')];
    return Elems;
  };
  const TileSizes &Sizes = Tiles.Sizes;
  int64_t CSliceElems = Sizes.TBx * Sizes.TBy * Sizes.RegX * Sizes.RegY;

  TransactionCost Cost;
  double BlockSteps =
      static_cast<double>(Tiles.Blocks) * static_cast<double>(Tiles.Steps);
  Cost.LoadA = transactionsPerSlice(sliceElements(Operand::A),
                                    contiguousRunOf(TC, Operand::A, Tile),
                                    ElemsPerTrans) *
               BlockSteps;
  Cost.LoadB = transactionsPerSlice(sliceElements(Operand::B),
                                    contiguousRunOf(TC, Operand::B, Tile),
                                    ElemsPerTrans) *
               BlockSteps;
  Cost.StoreC = transactionsPerSlice(CSliceElems,
                                     contiguousRunOf(TC, Operand::C, Tile),
                                     ElemsPerTrans) *
                static_cast<double>(Tiles.Blocks);
  // Chaos site: a misranking cost model. All three components scale by one
  // factor so the lie is self-consistent; PlanVerifier::verifyCost catches
  // estimates perturbed below the compulsory-traffic bound.
  if (support::chaosShouldFire(support::ChaosSite::CostPerturb)) {
    double Factor = support::activeFaultInjector()->perturbFactor(
        support::ChaosSite::CostPerturb);
    Cost.LoadA *= Factor;
    Cost.LoadB *= Factor;
    Cost.StoreC *= Factor;
  }
  return Cost;
}

TransactionCost cogent::core::estimateTransactions(const ir::Contraction &TC,
                                                   const KernelConfig &Config,
                                                   unsigned ElementSize,
                                                   unsigned TransactionBytes) {
  return estimateTransactions(TC, Config.tileTable(TC), ElementSize,
                              TransactionBytes);
}

TransactionCost cogent::core::estimateTransactions(const KernelPlan &Plan,
                                                   unsigned ElementSize,
                                                   unsigned TransactionBytes) {
  return estimateTransactions(Plan.contraction(), Plan.config(), ElementSize,
                              TransactionBytes);
}

TransactionCost
cogent::core::estimateTransactionsPaper(const KernelPlan &Plan,
                                        unsigned ElementSize,
                                        unsigned TransactionBytes) {
  assert((ElementSize == 4 || ElementSize == 8) && "unsupported element size");
  // The paper fixes transactions at 128 bytes == 16 doubles; the element
  // count only matters through size_Cont's cap below.
  int64_t ElemsPerTrans = TransactionBytes / ElementSize;
  double BlockSteps = static_cast<double>(Plan.numBlocks()) *
                      static_cast<double>(Plan.numSteps());

  // One input is walked by the thread-block X row, the other by Y.
  Operand XIn = Plan.config().XInput;
  Operand YIn = Plan.config().yInput();

  auto inputCost = [&](Operand Op, int64_t SizeTB, int64_t SizeReg) {
    int64_t SizeCont =
        std::min(Plan.contiguousRun(Op), ElemsPerTrans); // cal_Cont capped
    int64_t NumTransTx =
        ceilDiv(SizeTB, std::min<int64_t>(SizeCont, SizeTB));
    int64_t NumTransTB = NumTransTx * Plan.tbk();   // rows: size_TBk
    int64_t NumTransStep = NumTransTB * SizeReg;     // x size_REGx
    return static_cast<double>(NumTransStep) * BlockSteps;
  };

  TransactionCost Cost;
  double XCost = inputCost(XIn, Plan.tbX(), Plan.regX());
  double YCost = inputCost(YIn, Plan.tbY(), Plan.regY());
  Cost.LoadA = XIn == Operand::A ? XCost : YCost;
  Cost.LoadB = XIn == Operand::A ? YCost : XCost;

  // Store: rows of TBx threads write along C's FVI, TBy rows, one batch
  // per register-tile element.
  int64_t ContC = std::min(Plan.contiguousRunC(), ElemsPerTrans);
  int64_t NumTransTx =
      ceilDiv(Plan.tbX(), std::min<int64_t>(ContC, Plan.tbX()));
  Cost.StoreC = static_cast<double>(NumTransTx * Plan.tbY() * Plan.regX() *
                                    Plan.regY()) *
                static_cast<double>(Plan.numBlocks());
  return Cost;
}

namespace {

/// Shared-memory offset contribution of one role coordinate for input
/// \p Op: Offsets[v] = sum over Op's slice dims with that role of
/// digit(v) * SmemStride (mirrors the simulator's staging tables).
std::vector<int64_t> smemOffsetsByRole(const KernelPlan &Plan, Operand Op,
                                       CoordRole Role,
                                       const std::vector<IndexTile> &List) {
  int64_t Count = 1;
  for (const IndexTile &T : List)
    Count *= T.Tile;
  std::vector<int64_t> Offsets(static_cast<size_t>(Count), 0);
  for (int64_t V = 0; V < Count; ++V) {
    std::vector<int64_t> Digits = decodeMixedRadix(V, List);
    int64_t Off = 0;
    for (const SliceDim &Dim : Plan.sliceDims(Op))
      if (Dim.Role == Role)
        Off += Digits[Dim.RolePos] * Dim.SmemStride;
    Offsets[static_cast<size_t>(V)] = Off;
  }
  return Offsets;
}

/// Conflict degree of one warp's offsets: the maximum number of *distinct*
/// words any bank must serve (identical offsets broadcast for free).
double warpConflictDegree(const std::vector<int64_t> &LaneOffsets,
                          unsigned NumBanks) {
  std::vector<std::vector<int64_t>> PerBank(NumBanks);
  for (int64_t Off : LaneOffsets) {
    std::vector<int64_t> &Bank =
        PerBank[static_cast<size_t>(Off % NumBanks)];
    if (std::find(Bank.begin(), Bank.end(), Off) == Bank.end())
      Bank.push_back(Off);
  }
  size_t Max = 1;
  for (const std::vector<int64_t> &Bank : PerBank)
    Max = std::max(Max, Bank.size());
  return static_cast<double>(Max);
}

/// Mean conflict degree of the staging loads of one input across warps and
/// register/TBk iterations. \p LaneRoleCoord maps a linear thread id to the
/// role coordinate that varies per lane (tx for the X side, ty for Y).
double sideConflictFactor(const KernelPlan &Plan, Operand Op,
                          bool VariesWithTx, unsigned WarpSize,
                          unsigned NumBanks) {
  const KernelConfig &Config = Plan.config();
  std::vector<int64_t> LaneOffs =
      smemOffsetsByRole(Plan, Op, VariesWithTx ? CoordRole::ThreadX
                                               : CoordRole::ThreadY,
                        VariesWithTx ? Config.TBx : Config.TBy);
  std::vector<int64_t> RegOffs = smemOffsetsByRole(
      Plan, Op, VariesWithTx ? CoordRole::RegX : CoordRole::RegY,
      VariesWithTx ? Config.RegX : Config.RegY);
  std::vector<int64_t> StepOffs =
      smemOffsetsByRole(Plan, Op, CoordRole::Step, Config.TBk);

  int64_t Threads = Plan.threadsPerBlock();
  int64_t TbX = Plan.tbX();
  double DegreeSum = 0.0;
  int64_t SamplesTaken = 0;
  // Sample a bounded number of (reg, kk) iterations; offsets only shift by
  // a constant between them, so a handful captures the pattern.
  constexpr int64_t MaxSamples = 8;
  for (int64_t R = 0; R < static_cast<int64_t>(RegOffs.size()) &&
                      SamplesTaken < MaxSamples;
       ++R) {
    for (int64_t K = 0; K < static_cast<int64_t>(StepOffs.size()) &&
                        SamplesTaken < MaxSamples;
         K += std::max<int64_t>(1, static_cast<int64_t>(StepOffs.size()) /
                                       2)) {
      double WarpSum = 0.0;
      int64_t Warps = 0;
      for (int64_t Base = 0; Base < Threads; Base += WarpSize) {
        std::vector<int64_t> Offsets;
        for (int64_t Tid = Base;
             Tid < std::min<int64_t>(Base + WarpSize, Threads); ++Tid) {
          int64_t Coord = VariesWithTx ? Tid % TbX : Tid / TbX;
          Offsets.push_back(LaneOffs[static_cast<size_t>(Coord)] +
                            RegOffs[static_cast<size_t>(R)] +
                            StepOffs[static_cast<size_t>(K)]);
        }
        WarpSum += warpConflictDegree(Offsets, NumBanks);
        ++Warps;
      }
      DegreeSum += WarpSum / static_cast<double>(Warps);
      ++SamplesTaken;
    }
  }
  return SamplesTaken == 0 ? 1.0
                           : DegreeSum / static_cast<double>(SamplesTaken);
}

} // namespace

double cogent::core::smemBankConflictFactor(const KernelPlan &Plan,
                                            unsigned WarpSize,
                                            unsigned NumBanks) {
  Operand XIn = Plan.config().XInput;
  Operand YIn = Plan.config().yInput();
  double XFactor =
      sideConflictFactor(Plan, XIn, /*VariesWithTx=*/true, WarpSize,
                         NumBanks);
  double YFactor =
      sideConflictFactor(Plan, YIn, /*VariesWithTx=*/false, WarpSize,
                         NumBanks);
  // The two staging loads move similar volumes; average their penalties.
  return (XFactor + YFactor) / 2.0;
}

gpu::OccupancyResult cogent::core::planOccupancy(const TileSizes &Sizes,
                                                 const gpu::DeviceSpec &Device,
                                                 unsigned ElementSize) {
  gpu::BlockResources Block;
  Block.ThreadsPerBlock = static_cast<unsigned>(Sizes.threadsPerBlock());
  Block.SharedMemBytes = static_cast<unsigned>(Sizes.smemBytes(ElementSize));
  Block.RegistersPerThread = Sizes.registersPerThread(ElementSize);
  return gpu::computeOccupancy(Device, Block);
}

gpu::OccupancyResult cogent::core::planOccupancy(const KernelConfig &Config,
                                                 const gpu::DeviceSpec &Device,
                                                 unsigned ElementSize) {
  return planOccupancy(Config.sizes(), Device, ElementSize);
}

gpu::OccupancyResult cogent::core::planOccupancy(const KernelPlan &Plan,
                                                 const gpu::DeviceSpec &Device,
                                                 unsigned ElementSize) {
  return planOccupancy(Plan.config(), Device, ElementSize);
}

unsigned cogent::core::planRegisterPressure(const KernelPlan &Plan,
                                            unsigned ElementSize) {
  unsigned RegsPerElement = ElementSize / 4;
  int64_t Tile = Plan.regX() * Plan.regY() + Plan.regX() + Plan.regY();
  int64_t RankA = static_cast<int64_t>(Plan.sliceDims(Operand::A).size());
  int64_t RankB = static_cast<int64_t>(Plan.sliceDims(Operand::B).size());
  int64_t RankC = static_cast<int64_t>(Plan.storeDims().size());
  // Index arithmetic the emitter actually materializes, all 64-bit (2
  // registers each): the stride table, per-dimension tile counts and
  // bases of the grid and step decodes, and the global coordinates of
  // the wider slice load; 28 covers the remaining cursors and loop
  // state exactly as in KernelConfig::registersPerThread.
  int64_t Scalars = 28 + 2 * (RankA + RankB + RankC) +
                    4 * static_cast<int64_t>(Plan.gridDims().size()) +
                    4 * static_cast<int64_t>(Plan.stepDims().size()) +
                    2 * std::max(RankA, RankB);
  int64_t Total = Tile * RegsPerElement + Scalars;
  return static_cast<unsigned>(std::min<int64_t>(Total, 512));
}

gpu::KernelProfile
cogent::core::makeKernelProfile(const KernelPlan &Plan,
                                const gpu::DeviceSpec &Device,
                                unsigned ElementSize) {
  gpu::KernelProfile Profile;
  Profile.ElementSize = ElementSize;
  Profile.Flops = Plan.contraction().flopCount();

  TransactionCost Cost =
      estimateTransactions(Plan, ElementSize, Device.TransactionBytes);
  Profile.DramBytes = Cost.total() * Device.TransactionBytes;

  // Register staging: every thread reads REGx + REGy shared-memory elements
  // per intra-step iteration to produce 2*REGx*REGy flops.
  double InnerIterations = Profile.Flops / 2.0 /
                           static_cast<double>(Plan.regX() * Plan.regY());
  Profile.SmemBytes = InnerIterations *
                      static_cast<double>(Plan.regX() + Plan.regY()) *
                      ElementSize;
  // Bank conflicts serialize lanes: fold the modeled multiplier into the
  // effective SMEM traffic.
  Profile.SmemBytes *= smemBankConflictFactor(Plan);
  Profile.RegisterTileFlops =
      static_cast<double>(Plan.regX() * Plan.regY());

  gpu::OccupancyResult Occ = planOccupancy(Plan, Device, ElementSize);
  Profile.Occupancy = Occ.Occupancy;
  Profile.WaveEff =
      gpu::waveEfficiency(Device, Plan.numBlocks(), Occ.BlocksPerSM);
  return Profile;
}

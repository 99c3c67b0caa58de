//===- core/CostModel.h - DRAM-transaction cost model (Alg. 3) ------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's analytic cost model: estimate the number of 128-byte DRAM
/// transactions needed to load both input-tensor slices for every step of
/// every thread block plus the transactions to store the output, and rank
/// candidate configurations by that total without running them. Also
/// assembles the full gpu::KernelProfile (flops, bytes, occupancy) used by
/// the roofline time model.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_CORE_COSTMODEL_H
#define COGENT_CORE_COSTMODEL_H

#include "core/KernelPlan.h"
#include "gpu/DeviceSpec.h"
#include "gpu/Occupancy.h"
#include "gpu/PerfModel.h"

namespace cogent {
namespace core {

/// Transaction estimate broken down per operand.
struct TransactionCost {
  double LoadA = 0.0;
  double LoadB = 0.0;
  double StoreC = 0.0;

  double total() const { return LoadA + LoadB + StoreC; }
};

/// Implements Algorithm 3 for both inputs and the output store: the number
/// of transactions per staged slice is the number of contiguous runs times
/// the transactions per run, multiplied by steps and thread blocks.
///
/// This is the one body of the estimate. It reads only \p Tiles and \p TC's
/// index lists and extents, so ranking never materializes a KernelConfig or
/// a KernelPlan: the enumerator's candidate triples fill the table from
/// their partials (CandidateSet::tileTable). The slice sizes, cal_Cont
/// runs, block and step counts are the ones KernelPlan derives for the
/// same configuration.
/// \pre \p Tiles describes a configuration that validates against \p TC.
TransactionCost estimateTransactions(const ir::Contraction &TC,
                                     const TileTable &Tiles,
                                     unsigned ElementSize,
                                     unsigned TransactionBytes = 128);

/// The same estimate for \p Config's tile table.
/// \pre Config.validate(TC) returned an empty string.
TransactionCost estimateTransactions(const ir::Contraction &TC,
                                     const KernelConfig &Config,
                                     unsigned ElementSize,
                                     unsigned TransactionBytes = 128);

/// Same estimate for the plan's own (contraction, config) pair.
TransactionCost estimateTransactions(const KernelPlan &Plan,
                                     unsigned ElementSize,
                                     unsigned TransactionBytes = 128);

/// The paper's Algorithm 3 in its literal row-of-threads formulation:
///   numTransTx   = size_TBx / min(size_Cont, size_TBx)
///   numTransTB   = numTransTx * size_TBk
///   numTransStep = numTransTB * size_REGx
///   total        = numTransStep * numSteps * numTBs
/// (mirrored with TBy/REGy for the second input, plus the store term).
/// It differs from estimateTransactions in ignoring the 128-byte
/// transaction granularity cap on long runs; kept verbatim for fidelity
/// comparisons (see tests and DESIGN.md).
TransactionCost estimateTransactionsPaper(const KernelPlan &Plan,
                                          unsigned ElementSize,
                                          unsigned TransactionBytes = 128);

/// Builds the roofline profile for \p Plan on \p Device: exact flop count,
/// modeled DRAM bytes (from estimateTransactions), register-staging SMEM
/// traffic, occupancy and wave efficiency.
gpu::KernelProfile makeKernelProfile(const KernelPlan &Plan,
                                     const gpu::DeviceSpec &Device,
                                     unsigned ElementSize);

/// Occupancy of the block footprint of \p Sizes on \p Device.
gpu::OccupancyResult planOccupancy(const TileSizes &Sizes,
                                   const gpu::DeviceSpec &Device,
                                   unsigned ElementSize);

/// Occupancy of \p Config's block footprint on \p Device.
gpu::OccupancyResult planOccupancy(const KernelConfig &Config,
                                   const gpu::DeviceSpec &Device,
                                   unsigned ElementSize);

/// Occupancy of \p Plan's block footprint on \p Device.
gpu::OccupancyResult planOccupancy(const KernelPlan &Plan,
                                   const gpu::DeviceSpec &Device,
                                   unsigned ElementSize);

/// Refined per-thread register-pressure estimate for \p Plan: the declared
/// register tiles (r_C + r_A + r_B) plus an index-arithmetic term that
/// mirrors what the emitter actually generates — global strides for each
/// tensor dimension, the per-dimension tile counts and bases of the grid
/// and step decodes, and a fixed base of cursors/temporaries. Where
/// KernelConfig::registersPerThread prices all bookkeeping at a flat 28
/// registers, this estimate scales with contraction order, which is what
/// lets KernelDataflow's source-side liveness walk agree with it within
/// analysis::PressureToleranceRegs (asserted across the TCCG suite by
/// test_kernel_dataflow). Capped at 512 like the flat estimate.
unsigned planRegisterPressure(const KernelPlan &Plan, unsigned ElementSize);

/// Average shared-memory bank-conflict multiplier of the compute phase's
/// register-staging loads (1.0 = conflict-free or pure broadcast). Lanes of
/// a warp that read distinct shared-memory words falling in the same bank
/// serialize; the returned factor scales the SMEM roofline term. Modeled
/// with \p NumBanks element-granularity banks and broadcast coalescing, per
/// warp, averaged over the register-tile and TBk iterations.
double smemBankConflictFactor(const KernelPlan &Plan, unsigned WarpSize = 32,
                              unsigned NumBanks = 32);

} // namespace core
} // namespace cogent

#endif // COGENT_CORE_COSTMODEL_H

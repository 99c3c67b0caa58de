//===- core/CodeGen.h - CUDA source emission (Alg. 1) ---------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the CUDA C++ kernel realizing a KernelPlan, with the four-phase
/// structure of the paper's Algorithm 1:
///   (1) cooperative GMEM -> SMEM loads of both input slices,
///   (2) SMEM -> register staging of a column/row vector pair,
///   (3) outer-product accumulation into the per-thread register tile,
///   (4) guarded coalesced store of the output slice.
/// Extents are kernel parameters, so the generated code runs for any
/// problem size; tile sizes and mappings are baked in as constants chosen
/// for the representative problem size (paper §III / §IV-B).
///
/// There is no CUDA toolchain in this environment, so the emitted source is
/// validated structurally by tests, while the same KernelPlan is executed
/// semantically by gpu::KernelSimulator (see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_CORE_CODEGEN_H
#define COGENT_CORE_CODEGEN_H

#include "core/KernelPlan.h"

#include <string>

namespace cogent {
namespace core {

/// Code-emission knobs.
struct CodeGenOptions {
  /// "double" or "float".
  std::string ElementType = "double";
  /// Software-pipeline the staging: ping-pong shared-memory buffers let
  /// step i+1's global loads overlap step i's outer products, with one
  /// barrier per step instead of two. Doubles the shared-memory footprint
  /// (account for it when choosing tile sizes).
  bool DoubleBuffer = false;
};

/// Emitted artifact: the kernel plus a host-side launcher.
struct GeneratedSource {
  std::string KernelName;
  /// The __global__ kernel definition.
  std::string KernelSource;
  /// A host launcher computing the grid and invoking the kernel.
  std::string DriverSource;

  std::string full() const { return KernelSource + "\n" + DriverSource; }
};

/// Emits CUDA source for \p Plan.
GeneratedSource emitCuda(const KernelPlan &Plan,
                         const CodeGenOptions &Options = CodeGenOptions());

/// Emits OpenCL C source for \p Plan — the same Algorithm-1 schedule in the
/// OpenCL dialect (__kernel / __local / get_local_id / barrier), realizing
/// the backend the paper's footnote 1 plans as future work. The driver uses
/// the standard clSetKernelArg / clEnqueueNDRangeKernel host sequence.
GeneratedSource emitOpenCl(const KernelPlan &Plan,
                           const CodeGenOptions &Options = CodeGenOptions());

} // namespace core
} // namespace cogent

#endif // COGENT_CORE_CODEGEN_H

//===- core/CodeGen.cpp -------------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
//
// One schedule emitter, two GPU dialects. The paper ships CUDA emission and
// plans OpenCL ("OpenCL code generation is planned for the future",
// footnote 1); both are realized here over a small Dialect table so the
// Algorithm-1 structure is written exactly once.
//
//===----------------------------------------------------------------------===//

#include "core/CodeGen.h"

#include "analysis/SourceMutator.h"
#include "support/Counters.h"
#include "support/FaultInjection.h"

#include <cassert>
#include <sstream>

using namespace cogent;
using namespace cogent::core;
using cogent::ir::Contraction;
using cogent::ir::Operand;

COGENT_COUNTER(NumKernelsEmitted, "codegen.kernels-emitted",
               "kernel+driver source pairs emitted (both dialects)");
COGENT_COUNTER(NumBytesEmitted, "codegen.bytes-emitted",
               "total kernel+driver source bytes emitted");

namespace {

/// Target-language spellings of the execution-model builtins.
struct Dialect {
  const char *Name;
  /// printf-style pieces of the kernel signature.
  const char *KernelQualifier; // e.g. "extern \"C\" __global__ void"
  const char *GlobalOutPtr;    // "%T *__restrict__"
  const char *GlobalInPtr;     // "const %T *__restrict__"
  const char *SharedQualifier; // "__shared__" / "__local"
  const char *ExtentType;      // "const long long" / "const long"
  const char *OffsetType;      // "long long" / "long"
  const char *ThreadIdxX;
  const char *ThreadIdxY;
  const char *BlockIdxX;
  const char *GridDimX;
  const char *Barrier;
  /// Emitted before everything else (extensions pragma for CL fp64).
  const char *Prologue;
};

const Dialect CudaDialect = {
    "CUDA",
    "extern \"C\" __global__ void",
    "{T} *__restrict__",
    "const {T} *__restrict__",
    "__shared__",
    "const long long",
    "long long",
    "threadIdx.x",
    "threadIdx.y",
    "blockIdx.x",
    "gridDim.x",
    "__syncthreads();",
    "",
};

const Dialect OpenClDialect = {
    "OpenCL",
    "__kernel void",
    "__global {T} *restrict",
    "__global const {T} *restrict",
    "__local",
    "const long",
    "long",
    "(int)get_local_id(0)",
    "(int)get_local_id(1)",
    "(long)get_group_id(0)",
    "(long)get_num_groups(0)",
    "barrier(CLK_LOCAL_MEM_FENCE);",
    "", // set per element type below
};

/// Chaos site: a targeted codegen regression (dropped barrier, skewed
/// stride, ...). The SourceMutator kind is drawn from the same per-site
/// deterministic sequence as the fire decision, so a seed reproduces both
/// whether and how the source was corrupted. KernelLint's post-emit gate
/// in Cogent::generate is what absorbs these.
void maybeMutateSource(std::string &KernelSource) {
  if (!support::chaosShouldFire(support::ChaosSite::CodegenMutate))
    return;
  support::FaultInjector *Injector = support::activeFaultInjector();
  if (!Injector)
    return;
  unsigned Index = Injector->sample(support::ChaosSite::CodegenMutate) %
                   analysis::NumMutationKinds;
  // Draw through the name table's round-trip rather than a raw cast so a
  // kind/table drift shows up as a refused mutation, not arbitrary
  // enum values.
  std::optional<analysis::MutationKind> Kind = analysis::mutationKindFromName(
      analysis::mutationKindName(static_cast<analysis::MutationKind>(Index)));
  if (!Kind)
    return;
  KernelSource = analysis::applyMutation(KernelSource, *Kind);
}

std::string withType(const char *Pattern, const std::string &ElemT) {
  std::string Out = Pattern;
  if (size_t Pos = Out.find("{T}"); Pos != std::string::npos)
    Out.replace(Pos, 3, ElemT);
  return Out;
}

std::string extentVar(char Name) { return std::string("N_") + Name; }
std::string baseVar(char Name) { return std::string("base_") + Name; }
std::string kbaseVar(char Name) { return std::string("kbase_") + Name; }
std::string threadVar(char Name) { return std::string("t_") + Name; }

std::string strideVar(Operand Op, char Name) {
  return std::string("str") + ir::operandName(Op) + "_" + Name;
}

/// Emits `const <off> strT_x = ...;` lines for every index of \p Op,
/// column-major from the extent parameters.
void emitStrides(std::ostream &OS, const Dialect &Dia, const Contraction &TC,
                 Operand Op) {
  std::string Accum = std::string("(") + Dia.OffsetType + ")1";
  for (char Name : TC.indices(Op)) {
    OS << "  const " << Dia.OffsetType << " " << strideVar(Op, Name) << " = "
       << Accum << ";\n";
    Accum += " * " + extentVar(Name);
  }
}

/// Emits the mixed-radix decode of \p Source over \p List into variables
/// named <VarPrefix><index>, e.g. `const int x_b = rq % 4; rq /= 4;`.
void emitDecode(std::ostream &OS, const std::string &Indent,
                const std::string &Source, const std::string &Scratch,
                const std::vector<IndexTile> &List,
                const std::string &VarPrefix) {
  if (List.empty())
    return;
  OS << Indent << "int " << Scratch << " = " << Source << ";\n";
  for (size_t I = 0; I < List.size(); ++I) {
    OS << Indent << "const int " << VarPrefix << List[I].Name << " = "
       << Scratch << " % " << List[I].Tile << ";";
    if (I + 1 != List.size())
      OS << " " << Scratch << " /= " << List[I].Tile << ";";
    OS << "\n";
  }
}

/// Coordinate variable for a slice/store dimension according to its role.
std::string roleCoord(CoordRole Role, char Name) {
  switch (Role) {
  case CoordRole::ThreadX:
  case CoordRole::ThreadY:
    return threadVar(Name);
  case CoordRole::RegX:
    return std::string("x_") + Name;
  case CoordRole::RegY:
    return std::string("y_") + Name;
  case CoordRole::Step:
    return std::string("k_") + Name;
  case CoordRole::Fixed:
    return "0";
  }
  assert(false && "unknown role");
  return "0";
}

/// Emits the cooperative GMEM -> SMEM load loop for input \p Op.
/// \p SmemBase is prepended to the staging offset (double-buffer base).
void emitSliceLoad(std::ostream &OS, const Dialect &Dia,
                   const KernelPlan &Plan, Operand Op,
                   const std::string &SmemName, const std::string &GlobalName,
                   const std::string &ElementType,
                   const std::string &SmemBase = std::string()) {
  const Contraction &TC = Plan.contraction();
  const std::vector<SliceDim> &Dims = Plan.sliceDims(Op);
  int64_t SliceElems = Plan.sliceElements(Op);

  OS << "    // (1) load slice of " << ir::operandName(Op)
     << " from GMEM to SMEM\n";
  OS << "    for (int l = tid; l < " << SliceElems << "; l += NTHREADS) {\n";
  OS << "      int lr = l;\n";
  for (size_t I = 0; I < Dims.size(); ++I) {
    OS << "      const int i_" << Dims[I].Name << " = lr % " << Dims[I].Tile
       << ";";
    if (I + 1 != Dims.size())
      OS << " lr /= " << Dims[I].Tile << ";";
    OS << "\n";
  }
  for (const SliceDim &Dim : Dims) {
    bool IsInternal = TC.isInternal(Dim.Name);
    OS << "      const " << Dia.OffsetType << " g_" << Dim.Name << " = "
       << (IsInternal ? kbaseVar(Dim.Name) : baseVar(Dim.Name)) << " + i_"
       << Dim.Name << ";\n";
  }
  OS << "      const bool inb =";
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I != 0)
      OS << " &&";
    OS << " (g_" << Dims[I].Name << " < " << extentVar(Dims[I].Name) << ")";
  }
  OS << ";\n";
  // Store into the staging layout (thread-varying dims fastest; see
  // KernelPlan), not the load-flattening order.
  OS << "      " << SmemName << "[" << SmemBase;
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I != 0)
      OS << " + ";
    OS << "i_" << Dims[I].Name << " * " << Dims[I].SmemStride;
  }
  OS << "] = inb ? " << GlobalName << "[";
  for (size_t I = 0; I < Dims.size(); ++I) {
    if (I != 0)
      OS << " + ";
    OS << "g_" << Dims[I].Name << " * " << strideVar(Op, Dims[I].Name);
  }
  OS << "] : " << (ElementType == "double" ? "0.0" : "0.0f") << ";\n";
  OS << "    }\n";
}

/// SMEM offset expression for one staged element of \p Op given the
/// in-scope role coordinate variables.
std::string smemOffsetExpr(const KernelPlan &Plan, Operand Op) {
  std::string Expr;
  for (const SliceDim &Dim : Plan.sliceDims(Op)) {
    if (Dim.Role == CoordRole::Fixed)
      continue;
    if (!Expr.empty())
      Expr += " + ";
    Expr += roleCoord(Dim.Role, Dim.Name) + " * " +
            std::to_string(Dim.SmemStride);
  }
  return Expr.empty() ? "0" : Expr;
}

GeneratedSource emitKernel(const KernelPlan &Plan, const Dialect &Dia,
                           const CodeGenOptions &Options) {
  const Contraction &TC = Plan.contraction();
  const KernelConfig &Config = Plan.config();
  const std::string &ElemT = Options.ElementType;
  assert((ElemT == "double" || ElemT == "float") &&
         "unsupported element type");

  GeneratedSource Out;
  std::string SpecId = TC.toString();
  for (char &C : SpecId)
    if (C == '-')
      C = '_';
  Out.KernelName = "cogent_tc_" + SpecId;

  Operand XIn = Config.XInput;
  Operand YIn = Config.yInput();

  std::ostringstream OS;
  OS << Dia.Prologue;
  OS << "// Generated by COGENT (reproduction), " << Dia.Name
     << " dialect.\n";
  OS << "// Contraction: " << TC.toString() << "\n";
  OS << "// Mapping:     " << Config.toString() << "\n";
  OS << "#define TBX " << Plan.tbX() << "\n";
  OS << "#define TBY " << Plan.tbY() << "\n";
  OS << "#define NTHREADS " << Plan.threadsPerBlock() << "\n";
  OS << "#define REGX " << Plan.regX() << "\n";
  OS << "#define REGY " << Plan.regY() << "\n";
  OS << "#define TBK " << Plan.tbk() << "\n";
  OS << Dia.KernelQualifier << " " << Out.KernelName << "(\n";
  OS << "    " << withType(Dia.GlobalOutPtr, ElemT) << " g_C, "
     << withType(Dia.GlobalInPtr, ElemT) << " g_A,\n";
  OS << "    " << withType(Dia.GlobalInPtr, ElemT) << " g_B";
  for (char Name : TC.allIndices())
    OS << ", " << Dia.ExtentType << " " << extentVar(Name);
  OS << ") {\n";

  // Shared-memory slices of the two inputs (x2 when double-buffered).
  int64_t BufCount = Options.DoubleBuffer ? 2 : 1;
  OS << "  " << Dia.SharedQualifier << " " << ElemT << " s_A["
     << BufCount * Plan.sliceElements(Operand::A) << "];\n";
  OS << "  " << Dia.SharedQualifier << " " << ElemT << " s_B["
     << BufCount * Plan.sliceElements(Operand::B) << "];\n";
  OS << "  " << ElemT << " r_C[REGX * REGY];\n";
  OS << "  " << ElemT << " r_A[REGX];\n";
  OS << "  " << ElemT << " r_B[REGY];\n";
  OS << "\n";

  emitStrides(OS, Dia, TC, Operand::A);
  emitStrides(OS, Dia, TC, Operand::B);
  emitStrides(OS, Dia, TC, Operand::C);
  OS << "\n";

  // Per-external tile counts and total tile count (loop-invariant).
  OS << "  " << Dia.OffsetType << " totalBlocks = 1;\n";
  for (const PlanDim &Dim : Plan.gridDims()) {
    OS << "  const " << Dia.OffsetType << " nt_" << Dim.Name << " = ("
       << extentVar(Dim.Name) << " + " << Dim.Tile << " - 1) / " << Dim.Tile
       << ";\n";
    OS << "  totalBlocks *= nt_" << Dim.Name << ";\n";
  }
  OS << "\n";

  // Thread decode over the TBx / TBy lists (loop-invariant).
  OS << "  const int tid = " << Dia.ThreadIdxX << " + TBX * "
     << Dia.ThreadIdxY << ";\n";
  emitDecode(OS, "  ", Dia.ThreadIdxX, "txq", Config.TBx, "t_");
  emitDecode(OS, "  ", Dia.ThreadIdxY, "tyq", Config.TBy, "t_");
  OS << "\n";

  // Sequential steps over the internal iteration space (loop-invariant).
  OS << "  // " << Plan.numSteps() << " steps for the representative size\n";
  OS << "  " << Dia.OffsetType << " numSteps = 1;\n";
  for (const PlanDim &Dim : Plan.stepDims()) {
    OS << "  const " << Dia.OffsetType << " ns_" << Dim.Name << " = ("
       << extentVar(Dim.Name) << " + " << Dim.Tile << " - 1) / " << Dim.Tile
       << ";\n";
    OS << "  numSteps *= ns_" << Dim.Name << ";\n";
  }
  OS << "\n";

  // Grid-stride loop: correct even when the launched grid is smaller than
  // the tile count (arbitrarily large problem sizes).
  OS << "  for (" << Dia.OffsetType << " blkLinear = " << Dia.BlockIdxX
     << "; blkLinear < totalBlocks; blkLinear += " << Dia.GridDimX
     << ") {\n";
  OS << "  // grid decode: per-external tile bases\n";
  if (!Plan.gridDims().empty())
    OS << "  " << Dia.OffsetType << " blk = blkLinear;\n";
  for (size_t I = 0; I < Plan.gridDims().size(); ++I) {
    const PlanDim &Dim = Plan.gridDims()[I];
    OS << "  const " << Dia.OffsetType << " " << baseVar(Dim.Name)
       << " = (blk % nt_" << Dim.Name << ") * " << Dim.Tile << ";";
    // The cursor after the last digit is dead; skip the divide.
    if (I + 1 != Plan.gridDims().size())
      OS << " blk /= nt_" << Dim.Name << ";";
    OS << "\n";
  }
  OS << "\n";
  OS << "  for (int i = 0; i < REGX * REGY; ++i)\n";
  OS << "    r_C[i] = " << (ElemT == "double" ? "0.0" : "0.0f") << ";\n";
  OS << "\n";
  auto emitStepDecode = [&](const std::string &Indent,
                            const std::string &StepExpr) {
    if (Plan.stepDims().empty())
      return;
    OS << Indent << Dia.OffsetType << " sq = " << StepExpr << ";\n";
    for (size_t I = 0; I < Plan.stepDims().size(); ++I) {
      const PlanDim &Dim = Plan.stepDims()[I];
      OS << Indent << "const " << Dia.OffsetType << " "
         << kbaseVar(Dim.Name) << " = (sq % ns_" << Dim.Name << ") * "
         << Dim.Tile << ";";
      if (I + 1 != Plan.stepDims().size())
        OS << " sq /= ns_" << Dim.Name << ";";
      OS << "\n";
    }
  };

  std::string ElemsA = std::to_string(Plan.sliceElements(Operand::A));
  std::string ElemsB = std::to_string(Plan.sliceElements(Operand::B));
  std::string ComputeBaseA, ComputeBaseB;
  if (Options.DoubleBuffer) {
    // Software pipeline: stage step 0, then overlap each step's compute
    // with the loads of step+1 into the other buffer; one barrier/step.
    OS << "  int buf = 0;\n";
    OS << "  {\n";
    emitStepDecode("    ", "0");
    emitSliceLoad(OS, Dia, Plan, Operand::A, "s_A", "g_A", ElemT);
    emitSliceLoad(OS, Dia, Plan, Operand::B, "s_B", "g_B", ElemT);
    OS << "  }\n";
    OS << "  " << Dia.Barrier << "\n";
    ComputeBaseA = "buf * " + ElemsA + " + ";
    ComputeBaseB = "buf * " + ElemsB + " + ";
  }

  OS << "  for (" << Dia.OffsetType << " step = 0; step < numSteps; ++step) "
     << "{\n";
  if (Options.DoubleBuffer) {
    OS << "    if (step + 1 < numSteps) {\n";
    emitStepDecode("      ", "step + 1");
    emitSliceLoad(OS, Dia, Plan, Operand::A, "s_A", "g_A", ElemT,
                  "(1 - buf) * " + ElemsA + " + ");
    emitSliceLoad(OS, Dia, Plan, Operand::B, "s_B", "g_B", ElemT,
                  "(1 - buf) * " + ElemsB + " + ");
    OS << "    }\n";
  } else {
    emitStepDecode("    ", "step");
    emitSliceLoad(OS, Dia, Plan, Operand::A, "s_A", "g_A", ElemT);
    emitSliceLoad(OS, Dia, Plan, Operand::B, "s_B", "g_B", ElemT);
    OS << "    " << Dia.Barrier << "\n";
  }

  // Compute: register staging + outer product, Alg. 1 steps (2) and (3).
  OS << "    for (int kk = 0; kk < TBK; ++kk) {\n";
  emitDecode(OS, "      ", "kk", "kq", Config.TBk, "k_");
  OS << "      // (2) load inputs from SMEM to REG\n";
  OS << "      for (int rx = 0; rx < REGX; ++rx) {\n";
  emitDecode(OS, "        ", "rx", "rxq", Config.RegX, "x_");
  OS << "        r_A[rx] = " << (XIn == Operand::A ? "s_A" : "s_B") << "["
     << (XIn == Operand::A ? ComputeBaseA : ComputeBaseB)
     << smemOffsetExpr(Plan, XIn) << "];\n";
  OS << "      }\n";
  OS << "      for (int ry = 0; ry < REGY; ++ry) {\n";
  emitDecode(OS, "        ", "ry", "ryq", Config.RegY, "y_");
  OS << "        r_B[ry] = " << (XIn == Operand::A ? "s_B" : "s_A") << "["
     << (XIn == Operand::A ? ComputeBaseB : ComputeBaseA)
     << smemOffsetExpr(Plan, YIn) << "];\n";
  OS << "      }\n";
  OS << "      // (3) outer product into the register tile\n";
  OS << "      for (int rx = 0; rx < REGX; ++rx)\n";
  OS << "        for (int ry = 0; ry < REGY; ++ry)\n";
  OS << "          r_C[rx * REGY + ry] += r_A[rx] * r_B[ry];\n";
  OS << "    }\n";
  OS << "    " << Dia.Barrier << "\n";
  if (Options.DoubleBuffer)
    OS << "    buf = 1 - buf;\n";
  OS << "  }\n";
  OS << "\n";

  // Store phase, Alg. 1 step (4).
  OS << "  // (4) store the output from REG to GMEM\n";
  OS << "  for (int rx = 0; rx < REGX; ++rx) {\n";
  emitDecode(OS, "    ", "rx", "rxq", Config.RegX, "x_");
  OS << "    for (int ry = 0; ry < REGY; ++ry) {\n";
  emitDecode(OS, "      ", "ry", "ryq", Config.RegY, "y_");
  for (const StoreDim &Dim : Plan.storeDims())
    OS << "      const " << Dia.OffsetType << " gc_" << Dim.Name << " = "
       << baseVar(Dim.Name) << " + " << roleCoord(Dim.Role, Dim.Name)
       << ";\n";
  OS << "      if (";
  {
    const std::vector<StoreDim> &Dims = Plan.storeDims();
    for (size_t I = 0; I < Dims.size(); ++I) {
      if (I != 0)
        OS << " && ";
      OS << "gc_" << Dims[I].Name << " < " << extentVar(Dims[I].Name);
    }
  }
  OS << ")\n";
  OS << "        g_C[";
  {
    const std::vector<StoreDim> &Dims = Plan.storeDims();
    for (size_t I = 0; I < Dims.size(); ++I) {
      if (I != 0)
        OS << " + ";
      OS << "gc_" << Dims[I].Name << " * "
         << strideVar(Operand::C, Dims[I].Name);
    }
  }
  OS << "] = r_C[rx * REGY + ry];\n";
  OS << "    }\n";
  OS << "  }\n";
  OS << "  } // grid-stride loop\n";
  OS << "}\n";
  OS << "#undef TBX\n#undef TBY\n#undef NTHREADS\n"
     << "#undef REGX\n#undef REGY\n#undef TBK\n";
  Out.KernelSource = OS.str();
  return Out;
}

} // namespace

GeneratedSource cogent::core::emitCuda(const KernelPlan &Plan,
                                       const CodeGenOptions &Options) {
  GeneratedSource Out = emitKernel(Plan, CudaDialect, Options);
  const Contraction &TC = Plan.contraction();

  // Host-side launcher.
  std::ostringstream DS;
  DS << "// Host launcher for " << Out.KernelName << "\n";
  DS << "void launch_" << Out.KernelName << "(\n";
  DS << "    " << Options.ElementType << " *g_C, const "
     << Options.ElementType << " *g_A, const " << Options.ElementType
     << " *g_B";
  for (char Name : TC.allIndices())
    DS << ",\n    long long " << extentVar(Name);
  DS << ") {\n";
  DS << "  long long numBlocks = 1LL;\n";
  for (const PlanDim &Dim : Plan.gridDims())
    DS << "  numBlocks *= (" << extentVar(Dim.Name) << " + " << Dim.Tile
       << " - 1) / " << Dim.Tile << ";\n";
  DS << "  // Cap at the hardware grid limit; the kernel grid-strides.\n";
  DS << "  long long gridX = numBlocks < 2147483647LL ? numBlocks : "
        "2147483647LL;\n";
  DS << "  dim3 block(" << Plan.tbX() << ", " << Plan.tbY() << ", 1);\n";
  DS << "  dim3 grid(static_cast<unsigned>(gridX), 1, 1);\n";
  DS << "  " << Out.KernelName << "<<<grid, block>>>(g_C, g_A, g_B";
  for (char Name : TC.allIndices())
    DS << ", " << extentVar(Name);
  DS << ");\n";
  DS << "}\n";
  Out.DriverSource = DS.str();
  // Chaos site: a truncated emission (interrupted write). Dropping the back
  // half of the kernel leaves unclosed braces for verifySource to find;
  // Cogent::generate re-emits or demotes on that verdict.
  if (support::chaosShouldFire(support::ChaosSite::CodegenTruncate))
    Out.KernelSource.resize(Out.KernelSource.size() / 2);
  maybeMutateSource(Out.KernelSource);
  ++NumKernelsEmitted;
  NumBytesEmitted += Out.KernelSource.size() + Out.DriverSource.size();
  return Out;
}

GeneratedSource cogent::core::emitOpenCl(const KernelPlan &Plan,
                                         const CodeGenOptions &Options) {
  Dialect Dia = OpenClDialect;
  if (Options.ElementType == "double")
    Dia.Prologue = "#pragma OPENCL EXTENSION cl_khr_fp64 : enable\n";
  GeneratedSource Out = emitKernel(Plan, Dia, Options);
  const Contraction &TC = Plan.contraction();

  // Host-side launcher: sets arguments and enqueues the NDRange.
  std::ostringstream DS;
  DS << "// Host launcher for " << Out.KernelName << " (OpenCL)\n";
  DS << "cl_int launch_" << Out.KernelName << "(\n";
  DS << "    cl_command_queue Queue, cl_kernel Kernel,\n";
  DS << "    cl_mem g_C, cl_mem g_A, cl_mem g_B";
  for (char Name : TC.allIndices())
    DS << ",\n    cl_long " << extentVar(Name);
  DS << ") {\n";
  DS << "  cl_long numBlocks = 1;\n";
  for (const PlanDim &Dim : Plan.gridDims())
    DS << "  numBlocks *= (" << extentVar(Dim.Name) << " + " << Dim.Tile
       << " - 1) / " << Dim.Tile << ";\n";
  DS << "  cl_uint Arg = 0;\n";
  DS << "  clSetKernelArg(Kernel, Arg++, sizeof(cl_mem), &g_C);\n";
  DS << "  clSetKernelArg(Kernel, Arg++, sizeof(cl_mem), &g_A);\n";
  DS << "  clSetKernelArg(Kernel, Arg++, sizeof(cl_mem), &g_B);\n";
  for (char Name : TC.allIndices())
    DS << "  clSetKernelArg(Kernel, Arg++, sizeof(cl_long), &"
       << extentVar(Name) << ");\n";
  DS << "  size_t Local[2] = {" << Plan.tbX() << ", " << Plan.tbY()
     << "};\n";
  DS << "  size_t Global[2] = {static_cast<size_t>(numBlocks) * "
     << Plan.tbX() << ", " << Plan.tbY() << "};\n";
  DS << "  return clEnqueueNDRangeKernel(Queue, Kernel, 2, nullptr, Global, "
        "Local, 0, nullptr, nullptr);\n";
  DS << "}\n";
  Out.DriverSource = DS.str();
  maybeMutateSource(Out.KernelSource);
  ++NumKernelsEmitted;
  NumBytesEmitted += Out.KernelSource.size() + Out.DriverSource.size();
  return Out;
}

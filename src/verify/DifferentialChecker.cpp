//===- verify/DifferentialChecker.cpp -------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "verify/DifferentialChecker.h"

#include "core/CostModel.h"
#include "core/KernelPlan.h"
#include "gpu/KernelSimulator.h"
#include "support/Checked.h"
#include "support/Counters.h"
#include "support/Random.h"
#include "support/Trace.h"
#include "tensor/Reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

using namespace cogent;
using namespace cogent::verify;

COGENT_COUNTER(NumDiffTrials, "verifier.diff-trials",
               "Differential simulator-vs-reference trials executed");
COGENT_COUNTER(NumDiffFailures, "verifier.diff-failures",
               "Differential trials that diverged from the oracle");

namespace {

/// The checker executes doubles only.
constexpr unsigned ElementSize = 8;
/// Relative numeric tolerance between simulator and reference.
constexpr double NumericTolerance = 1e-9;
/// Absolute transactions forgiven before TrafficFactor applies.
constexpr double TrafficSlack = 64.0;

/// NaN-aware elementwise agreement: both NaN, both the same infinity, or
/// within relative/absolute tolerance. Returns the finite relative error
/// (0 for agreeing specials), or nullopt on divergence.
std::optional<double> compareElements(double Got, double Want,
                                      double Tolerance) {
  if (std::isnan(Got) || std::isnan(Want))
    return (std::isnan(Got) && std::isnan(Want))
               ? std::optional<double>(0.0)
               : std::nullopt;
  if (std::isinf(Got) || std::isinf(Want))
    return (std::isinf(Got) && std::isinf(Want) &&
            std::signbit(Got) == std::signbit(Want))
               ? std::optional<double>(0.0)
               : std::nullopt;
  double Diff = std::abs(Got - Want);
  double Scale = std::max({std::abs(Got), std::abs(Want), 1.0});
  double Rel = Diff / Scale;
  if (Rel > Tolerance)
    return std::nullopt;
  return Rel;
}

struct TrialOutcome {
  double MaxRelError = 0.0;
  double TrafficRatio = 1.0;
};

/// One execution of the schedule at concrete extents, against the oracle
/// and the analytic traffic model.
ErrorOr<TrialOutcome> runTrial(const ir::Contraction &TC,
                               const core::KernelConfig &Config,
                               const gpu::DeviceSpec &Device,
                               const DifferentialOptions &Options, Rng &Gen,
                               bool SeedSpecials) {
  ++NumDiffTrials;
  auto Fail = [&](std::string Message) -> Error {
    ++NumDiffFailures;
    return Error(ErrorCode::VerificationFailed,
                 std::move(Message) + " [" +
                     TC.toStringWithExtents() + " with " +
                     Config.toString() + "]");
  };

  core::KernelConfig Clamped = Config.clampedTo(TC);
  std::string Issue = Clamped.validate(TC);
  if (!Issue.empty())
    return Fail("clamped config invalid at trial extents: " + Issue);
  core::KernelPlan Plan(TC, Clamped);

  tensor::Tensor<double> A = tensor::makeOperand<double>(TC, ir::Operand::A);
  tensor::Tensor<double> B = tensor::makeOperand<double>(TC, ir::Operand::B);
  tensor::Tensor<double> CSim = tensor::makeOperand<double>(TC, ir::Operand::C);
  tensor::Tensor<double> CRef = tensor::makeOperand<double>(TC, ir::Operand::C);
  A.fillRandom(Gen);
  B.fillRandom(Gen);

  if (SeedSpecials) {
    // One NaN, one +Inf and one denormal per operand at random positions:
    // the schedule must carry them to exactly the elements the oracle does.
    const double Specials[3] = {std::numeric_limits<double>::quiet_NaN(),
                                std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::denorm_min()};
    for (double Special : Specials) {
      A.at(Gen.uniformInt(0, A.numElements() - 1)) = Special;
      B.at(Gen.uniformInt(0, B.numElements() - 1)) = Special;
    }
  }

  gpu::SimOptions Sim;
  Sim.TransactionBytes = Device.TransactionBytes;
  Sim.WarpSize = Device.WarpSize;
  gpu::SimResult Result = gpu::simulateKernel<double>(Plan, CSim, A, B, Sim);
  tensor::contractReference(TC, CRef, A, B);

  TrialOutcome Outcome;
  for (int64_t I = 0, E = CRef.numElements(); I < E; ++I) {
    std::optional<double> Rel =
        compareElements(CSim.at(I), CRef.at(I), NumericTolerance);
    if (!Rel)
      return Fail("schedule diverges from the reference at element " +
                  std::to_string(I) + ": simulated " +
                  std::to_string(CSim.at(I)) + ", reference " +
                  std::to_string(CRef.at(I)));
    Outcome.MaxRelError = std::max(Outcome.MaxRelError, *Rel);
  }

  core::TransactionCost Model =
      core::estimateTransactions(Plan, ElementSize, Device.TransactionBytes);
  double Simulated = static_cast<double>(Result.totalTransactions());
  double Modeled = Model.total();
  double Hi = std::max(Simulated, Modeled);
  double Lo = std::min(Simulated, Modeled);
  if (Hi > Lo * Options.TrafficFactor + TrafficSlack)
    return Fail("modeled traffic " + std::to_string(Modeled) +
                " and simulated traffic " + std::to_string(Simulated) +
                " disagree beyond factor " +
                std::to_string(Options.TrafficFactor));
  Outcome.TrafficRatio = Lo > 0.0 ? Hi / Lo : 1.0;
  return Outcome;
}

} // namespace

ErrorOr<DifferentialReport>
verify::runDifferentialCheck(const ir::Contraction &TC,
                             const core::KernelConfig &Config,
                             const gpu::DeviceSpec &Device,
                             const DifferentialOptions &Options) {
  support::TraceSpan Span("verify.differential");
  Rng Gen(Options.Seed);
  DifferentialReport Report;

  auto Accumulate = [&](ErrorOr<TrialOutcome> Outcome,
                        const char *Label) -> std::optional<Error> {
    if (!Outcome)
      return Outcome.takeError().withContext(Label);
    ++Report.TrialsRun;
    Report.MaxRelError = std::max(Report.MaxRelError, Outcome->MaxRelError);
    Report.WorstTrafficRatio =
        std::max(Report.WorstTrafficRatio, Outcome->TrafficRatio);
    return std::nullopt;
  };

  std::string Spec = TC.toString();
  for (unsigned Trial = 0; Trial < Options.Trials; ++Trial) {
    // Redraw every index extent in [1, MaxExtent] so remainder tiles,
    // degenerate extent-1 dimensions and non-uniform shapes all get hit.
    std::vector<std::pair<char, int64_t>> Extents;
    for (char Name : TC.allIndices())
      Extents.emplace_back(Name, Gen.uniformInt(1, Options.MaxExtent));
    ErrorOr<ir::Contraction> Small = ir::Contraction::parse(Spec, Extents);
    if (!Small)
      return Small.takeError().withContext("differential trial re-parse");
    if (std::optional<Error> E =
            Accumulate(runTrial(*Small, Config, Device, Options, Gen,
                                /*SeedSpecials=*/false),
                       "randomized-extent trial"))
      return std::move(*E);
  }

  if (std::optional<Error> E =
          Accumulate(runTrial(TC, Config, Device, Options, Gen,
                              /*SeedSpecials=*/true),
                     "special-value trial"))
    return std::move(*E);

  // Extents near 2^31.5 per index: any product of two or more overflows
  // int64, so planning must be impossible — the parser has to reject this
  // with a typed error (Checked.h), never hand it to the scheduler.
  std::vector<std::pair<char, int64_t>> Huge;
  for (char Name : TC.allIndices())
    Huge.emplace_back(Name, int64_t(3037000499LL));
  if (ir::Contraction::parse(Spec, Huge)) {
    ++NumDiffFailures;
    return Error(ErrorCode::VerificationFailed,
                 "overflow-prone extents were accepted by the parser for " +
                     Spec);
  }

  return Report;
}

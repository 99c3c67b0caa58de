//===- perfbench/src/OutputCheck.cpp - Output check + negative control ----===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "verify/DifferentialChecker.h"

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <limits>

using namespace cogent;

namespace perfbench {

/// Validation size of the differential check: every extent drawn in
/// [1, 6], one randomized trial plus the special-value and overflow probes.
constexpr int64_t CheckMaxExtent = 6;

ir::Contraction clampExtents(const ir::Contraction &TC, int64_t MaxExtent) {
  std::vector<std::pair<char, int64_t>> Extents;
  for (char Name : TC.allIndices())
    Extents.emplace_back(Name, std::min(TC.extent(Name), MaxExtent));
  ErrorOr<ir::Contraction> Small = ir::Contraction::parse(TC.toString(),
                                                          Extents);
  if (!Small) {
    // Clamping a parsed contraction cannot make it malformed.
    std::fprintf(stderr, "perfbench: cannot clamp %s: %s\n",
                 TC.toStringWithExtents().c_str(),
                 Small.errorMessage().c_str());
    std::abort();
  }
  return *Small;
}

const ir::Contraction &planContraction(const ir::Contraction &TC,
                                       const core::GenerationResult &Result) {
  return Result.Fallback == core::FallbackLevel::TtgtBaseline
             ? *Result.FallbackContraction
             : TC;
}

std::string OutputCheck::add(const ir::Contraction &TC,
                             const core::KernelConfig &Config,
                             const gpu::DeviceSpec &Device) {
  ir::Contraction Small = clampExtents(TC, CheckMaxExtent);
  std::string Key = Device.Name + " " + Small.toStringWithExtents() + " " +
                    Config.toString();
  Items.try_emplace(Key, Item{Small, Config, Device, false, false, true, {},
                              {}});
  return Key;
}

void OutputCheck::run(unsigned Threads) {
  std::vector<std::pair<const std::string *, Item *>> Pending;
  for (auto &[Key, It] : Items)
    if (!It.Ran)
      Pending.emplace_back(&Key, &It);
  parallelFor(Pending.size(), Threads, [&](size_t I) {
    const std::string &Key = *Pending[I].first;
    Item &It = *Pending[I].second;
    verify::DifferentialOptions Options;
    Options.Seed = Seed ^ std::hash<std::string>()(Key);
    Options.MaxExtent = CheckMaxExtent;
    Options.Trials = 1;
    // The output verdict: simulated results equal the reference (NaN-aware,
    // special values seeded) and overflow-prone extents are rejected. The
    // modeled-vs-simulated traffic cross-check is a property of the cost
    // model, not of the output, so it is run separately below with the
    // checker's own tolerance and reported on its own.
    verify::DifferentialOptions OutputOnly = Options;
    OutputOnly.TrafficFactor = std::numeric_limits<double>::infinity();
    ErrorOr<verify::DifferentialReport> Outcome =
        verify::runDifferentialCheck(It.TC, It.Config, It.Device, OutputOnly);
    It.Ran = true;
    It.Passed = Outcome.hasValue();
    if (!It.Passed) {
      It.Note = Outcome.errorMessage();
      return;
    }
    ErrorOr<verify::DifferentialReport> Traffic =
        verify::runDifferentialCheck(It.TC, It.Config, It.Device, Options);
    It.TrafficAgrees = Traffic.hasValue();
    if (!It.TrafficAgrees)
      It.TrafficNote = Traffic.errorMessage();
  });
}

bool OutputCheck::passed(const std::string &Key) const {
  auto It = Items.find(Key);
  return It != Items.end() && It->second.Ran && It->second.Passed;
}

size_t OutputCheck::failures() const {
  size_t N = 0;
  for (const auto &[Key, It] : Items)
    N += It.Ran && !It.Passed;
  return N;
}

std::vector<std::string> OutputCheck::failureNotes(size_t Max) const {
  std::vector<std::string> Notes;
  for (const auto &[Key, It] : Items)
    if (It.Ran && !It.Passed && Notes.size() < Max)
      Notes.push_back(Key + ": " + It.Note);
  return Notes;
}

size_t OutputCheck::trafficDisagreements() const {
  size_t N = 0;
  for (const auto &[Key, It] : Items)
    N += It.Ran && It.Passed && !It.TrafficAgrees;
  return N;
}

std::vector<std::string> OutputCheck::trafficNotes(size_t Max) const {
  std::vector<std::string> Notes;
  for (const auto &[Key, It] : Items)
    if (It.Ran && It.Passed && !It.TrafficAgrees && Notes.size() < Max)
      Notes.push_back(Key + ": " + It.TrafficNote);
  return Notes;
}

JsonObject runNegativeControl(const ir::Contraction &TC,
                              const core::KernelConfig &Selected,
                              const gpu::DeviceSpec &Device, uint64_t Seed,
                              bool &AllCaught) {
  OutputCheck Control(Seed);
  std::vector<std::string> Keys;
  // (1) The output FVI mapped twice: once on TBx and again on TBk.
  core::KernelConfig Twice = Selected;
  Twice.TBk.push_back(Twice.TBx.front());
  Keys.push_back(Control.add(TC, Twice, Device));
  // (2) The X input flipped, so TBx walks the input without the output's
  // FVI.
  core::KernelConfig Flipped = Selected;
  Flipped.XInput = Flipped.yInput();
  Keys.push_back(Control.add(TC, Flipped, Device));
  Control.run(1);
  size_t Caught = 0;
  for (const std::string &Key : Keys)
    Caught += !Control.passed(Key);
  AllCaught = Caught == Keys.size();
  JsonObject Out;
  Out.num("fed", static_cast<double>(Keys.size()))
      .num("counted_failed", static_cast<double>(Caught))
      .strList("notes", Control.failureNotes(Keys.size()));
  return Out;
}

} // namespace perfbench

//===- support/FaultInjection.cpp -----------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"

#include "support/Counters.h"
#include "support/Trace.h"

#include <cassert>
#include <cmath>

using namespace cogent;
using namespace cogent::support;

COGENT_COUNTER(NumChaosFired, "chaos.fired",
               "Total fault injections fired across all sites");
COGENT_COUNTER(NumChaosEnumeratorAlloc, "chaos.fired.enumerator-alloc",
               "Injected allocation failures during enumeration");
COGENT_COUNTER(NumChaosCostPerturb, "chaos.fired.cost-perturb",
               "Injected cost-model score perturbations");
COGENT_COUNTER(NumChaosCodegenTruncate, "chaos.fired.codegen-truncate",
               "Injected kernel source truncations");
COGENT_COUNTER(NumChaosSimTraffic, "chaos.fired.sim-traffic",
               "Injected simulator transaction-count skews");
COGENT_COUNTER(NumChaosAutotuneMisrank, "chaos.fired.autotune-misrank",
               "Injected autotuner measurement perturbations");
COGENT_COUNTER(NumChaosRepositoryCorrupt, "chaos.fired.repository-corrupt",
               "Injected repository cache-entry corruptions");
COGENT_COUNTER(NumChaosDeviceMutate, "chaos.fired.device-mutate",
               "Injected mid-search DeviceSpec mutations");
COGENT_COUNTER(NumChaosCodegenMutate, "chaos.fired.codegen-mutate",
               "Injected targeted kernel-source mutations");

static Counter *siteCounter(ChaosSite Site) {
  switch (Site) {
  case ChaosSite::EnumeratorAlloc:
    return &NumChaosEnumeratorAlloc;
  case ChaosSite::CostPerturb:
    return &NumChaosCostPerturb;
  case ChaosSite::CodegenTruncate:
    return &NumChaosCodegenTruncate;
  case ChaosSite::SimTrafficSkew:
    return &NumChaosSimTraffic;
  case ChaosSite::AutotuneMisrank:
    return &NumChaosAutotuneMisrank;
  case ChaosSite::RepositoryCorrupt:
    return &NumChaosRepositoryCorrupt;
  case ChaosSite::DeviceMutate:
    return &NumChaosDeviceMutate;
  case ChaosSite::CodegenMutate:
    return &NumChaosCodegenMutate;
  }
  assert(false && "unknown chaos site");
  return &NumChaosFired;
}

const char *support::chaosSiteName(ChaosSite Site) {
  switch (Site) {
  case ChaosSite::EnumeratorAlloc:
    return "enumerator-alloc";
  case ChaosSite::CostPerturb:
    return "cost-perturb";
  case ChaosSite::CodegenTruncate:
    return "codegen-truncate";
  case ChaosSite::SimTrafficSkew:
    return "sim-traffic";
  case ChaosSite::AutotuneMisrank:
    return "autotune-misrank";
  case ChaosSite::RepositoryCorrupt:
    return "repository-corrupt";
  case ChaosSite::DeviceMutate:
    return "device-mutate";
  case ChaosSite::CodegenMutate:
    return "codegen-mutate";
  }
  assert(false && "unknown chaos site");
  return "?";
}

std::optional<ChaosSite> support::chaosSiteFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumChaosSites; ++I) {
    ChaosSite Site = static_cast<ChaosSite>(I);
    if (Name == chaosSiteName(Site))
      return Site;
  }
  return std::nullopt;
}

std::optional<uint32_t> support::parseChaosSites(const std::string &List) {
  if (List == "all")
    return AllChaosSites;
  uint32_t Mask = 0;
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = List.size();
    std::string Name = List.substr(Pos, Comma - Pos);
    std::optional<ChaosSite> Site = chaosSiteFromName(Name);
    if (!Site)
      return std::nullopt;
    Mask |= chaosSiteBit(*Site);
    Pos = Comma + 1;
  }
  return Mask;
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

/// splitmix64 finalizer: a cheap, high-quality 64-bit mix.
static uint64_t mix64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ull;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

FaultInjector::FaultInjector(const ChaosOptions &Options) : Options(Options) {
  for (unsigned I = 0; I < NumChaosSites; ++I) {
    Queries[I].store(0, std::memory_order_relaxed);
    Fired[I].store(0, std::memory_order_relaxed);
  }
}

uint64_t FaultInjector::draw(ChaosSite Site) {
  size_t Index = static_cast<size_t>(Site);
  uint64_t Query = Queries[Index].fetch_add(1, std::memory_order_relaxed);
  // Mix the seed and site first so consecutive queries at one site walk an
  // unrelated (seed, site)-keyed sequence, then fold in the query number.
  return mix64(mix64(Options.Seed ^ (0xc0fee000ull + Index)) ^ Query);
}

bool FaultInjector::shouldFire(ChaosSite Site) {
  if (!enabled(Site))
    return false;
  uint64_t Hash = draw(Site);
  // Map the top 53 bits to [0, 1) — exact for any representable probability.
  double Uniform =
      static_cast<double>(Hash >> 11) * (1.0 / 9007199254740992.0);
  if (Uniform >= Options.FireProbability)
    return false;
  Fired[static_cast<size_t>(Site)].fetch_add(1, std::memory_order_relaxed);
  ++NumChaosFired;
  ++*siteCounter(Site);
  traceInstant("chaos.fire", {{"site", chaosSiteName(Site)}});
  return true;
}

double FaultInjector::perturbFactor(ChaosSite Site, double Magnitude) {
  assert(Magnitude >= 1.0 && "perturbation magnitude must be >= 1");
  uint64_t Hash = draw(Site);
  double Uniform =
      static_cast<double>(Hash >> 11) * (1.0 / 9007199254740992.0);
  // Exponent uniform in [-1, 1] -> factor uniform in log space over
  // [1/Magnitude, Magnitude].
  return std::pow(Magnitude, 2.0 * Uniform - 1.0);
}

uint8_t FaultInjector::corruptByte(uint64_t Pos) const {
  return static_cast<uint8_t>(mix64(Options.Seed ^ ~Pos));
}

//===----------------------------------------------------------------------===//
// Activation
//===----------------------------------------------------------------------===//

namespace {
// Per-thread, not process-wide: every run installs its own injector for its
// own duration (Cogent::generate), and concurrent runs on a worker pool
// must neither see each other's injectors nor race the install/restore
// pair. A process-wide slot would let thread B keep reading thread A's
// injector after A's run (and injector) ended — a use-after-free the
// service layer's chaos lane would hit constantly.
thread_local FaultInjector *ActiveInjector = nullptr;
} // namespace

FaultInjector *support::activeFaultInjector() { return ActiveInjector; }

ScopedChaosActivation::ScopedChaosActivation(FaultInjector *Injector) {
  if (!Injector)
    return;
  Previous = ActiveInjector;
  ActiveInjector = Injector;
  Installed = true;
}

ScopedChaosActivation::~ScopedChaosActivation() {
  if (Installed)
    ActiveInjector = Previous;
}

#ifdef COGENT_CHAOS_ENABLED

bool support::chaosShouldFire(ChaosSite Site) {
  FaultInjector *Injector = activeFaultInjector();
  return Injector && Injector->shouldFire(Site);
}

double support::chaosPerturb(ChaosSite Site, double Value, double Magnitude) {
  FaultInjector *Injector = activeFaultInjector();
  if (!Injector || !Injector->shouldFire(Site))
    return Value;
  return Value * Injector->perturbFactor(Site, Magnitude);
}

#endif // COGENT_CHAOS_ENABLED

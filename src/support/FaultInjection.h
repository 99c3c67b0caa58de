//===- support/FaultInjection.h - Deterministic chaos layer ----------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deterministic, seed-driven fault-injection ("chaos") layer for proving
/// the generation pipeline's robustness claims adversarially. Named
/// injection sites are threaded through the Enumerator, CostModel, CodeGen,
/// KernelSimulator, Autotune and KernelRepository; when a FaultInjector is
/// installed (ScopedChaosActivation, normally via CogentOptions::Chaos) and
/// a site is enabled in its mask, queries at that site draw from a
/// counter-indexed hash of the seed — the same seed always fires the same
/// faults in the same places, so every chaos failure reproduces exactly.
///
/// Every firing is observable: it bumps a per-site "chaos.fired.<site>"
/// counter (visible in GenerationResult::Counters deltas and metrics JSON)
/// and records a "chaos.fire" trace instant event.
///
/// With no injector installed a site query is one relaxed atomic load and a
/// branch — cheap enough to stay in release builds. Configuring CMake with
/// -DCOGENT_CHAOS=OFF compiles the query helpers down to constants so the
/// hooks vanish entirely.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_FAULTINJECTION_H
#define COGENT_SUPPORT_FAULTINJECTION_H

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string>

namespace cogent {
namespace support {

/// The named injection sites. Each corresponds to one concrete misbehavior
/// of one pipeline component (see docs/ARCHITECTURE.md §11 for the list of
/// what each simulates and which guarantee it attacks).
enum class ChaosSite : unsigned {
  /// Enumerator::enumerate throws std::bad_alloc mid-search (allocation
  /// failure during candidate generation).
  EnumeratorAlloc,
  /// estimateTransactions returns scores perturbed by a factor in
  /// [1/4, 4] — a misranking cost model.
  CostPerturb,
  /// emitCuda/emitOpenCl drops the tail of the kernel source (truncated
  /// emission, e.g. an interrupted write).
  CodegenTruncate,
  /// simulateKernel skews its reported transaction counts (numerics stay
  /// correct; the measurement channel lies).
  SimTrafficSkew,
  /// refineTopKBySimulation perturbs measured GFLOPS (hostile autotuner).
  AutotuneMisrank,
  /// ShardedKernelRepository corrupts a stored plan-cache entry before
  /// its checksum is checked on a hit (bit rot in the in-memory store).
  RepositoryCorrupt,
  /// Cogent::generate's working DeviceSpec shrinks mid-search (hostile
  /// driver reporting different limits than the search assumed).
  DeviceMutate,
  /// emitCuda/emitOpenCl applies one targeted SourceMutator corruption to
  /// the emitted kernel (a codegen regression: dropped barrier, skewed
  /// stride, widened extent, ...) — the fault KernelLint's gate absorbs.
  CodegenMutate,
};

/// Number of ChaosSite enumerators; keep in sync when extending the enum
/// (the name-table round-trip test walks [0, NumChaosSites)).
inline constexpr unsigned NumChaosSites = 8;

/// "enumerator-alloc", "cost-perturb", "codegen-truncate", "sim-traffic",
/// "autotune-misrank", "repository-corrupt", "device-mutate" or
/// "codegen-mutate".
const char *chaosSiteName(ChaosSite Site);

/// Inverse of chaosSiteName; nullopt for unknown strings.
std::optional<ChaosSite> chaosSiteFromName(const std::string &Name);

/// Bit for \p Site in a ChaosOptions::Sites mask.
constexpr uint32_t chaosSiteBit(ChaosSite Site) {
  return 1u << static_cast<unsigned>(Site);
}

/// Mask with every site enabled.
inline constexpr uint32_t AllChaosSites = (1u << NumChaosSites) - 1;

/// Parses a comma-separated site list ("cost-perturb,device-mutate" or
/// "all") into a mask; nullopt when any name is unknown.
std::optional<uint32_t> parseChaosSites(const std::string &List);

/// Chaos configuration for one run. Sites == 0 (the default) means chaos
/// is off and the layer costs nothing.
struct ChaosOptions {
  /// Seed for the deterministic fire decisions; two runs with equal seed,
  /// sites and workload inject identical faults.
  uint64_t Seed = 0;
  /// Bitmask of enabled ChaosSites (chaosSiteBit / parseChaosSites).
  uint32_t Sites = 0;
  /// Probability that one query at an enabled site fires, in [0, 1].
  double FireProbability = 0.25;

  bool enabled() const { return Sites != 0; }
};

/// The seed-driven decision engine. Each site keeps its own query counter;
/// decision n at site s is a pure function of (Seed, s, n), independent of
/// every other site, so enabling an extra site never shifts the faults an
/// already-enabled site injects.
class FaultInjector {
public:
  explicit FaultInjector(const ChaosOptions &Options);

  const ChaosOptions &options() const { return Options; }

  bool enabled(ChaosSite Site) const {
    return (Options.Sites & chaosSiteBit(Site)) != 0;
  }

  /// Draws the next decision for \p Site: true = inject. Records the
  /// firing (counter + trace instant) when it does.
  bool shouldFire(ChaosSite Site);

  /// Deterministic multiplicative perturbation in [1/Magnitude, Magnitude]
  /// for the next draw at \p Site (used by value-skew sites).
  double perturbFactor(ChaosSite Site, double Magnitude = 4.0);

  /// Deterministic corruption byte for position \p Pos (repository reads).
  uint8_t corruptByte(uint64_t Pos) const;

  /// The next deterministic raw draw for \p Site — for sites that need a
  /// value beyond the fire decision (e.g. picking which source mutation to
  /// apply). Advances the same per-site query counter as shouldFire, so
  /// the choice is as seed-stable and site-independent as the firing.
  uint64_t sample(ChaosSite Site) { return draw(Site); }

  /// Firings of \p Site since construction.
  uint64_t fired(ChaosSite Site) const {
    return Fired[static_cast<size_t>(Site)].load(std::memory_order_relaxed);
  }

private:
  uint64_t draw(ChaosSite Site);

  ChaosOptions Options;
  std::array<std::atomic<uint64_t>, NumChaosSites> Queries;
  std::array<std::atomic<uint64_t>, NumChaosSites> Fired;
};

/// The injector installed on the *calling thread*, or nullptr when chaos
/// is off for this thread. Activation is thread-local (like per-run
/// counter scopes): a run's injector only affects work done on the thread
/// that installed it, so concurrent runs on a worker pool get independent,
/// race-free fault streams.
FaultInjector *activeFaultInjector();

/// Installs \p Injector on the calling thread for this object's lifetime,
/// restoring the previous injector on destruction. A null \p Injector is a
/// no-op so callers can pass through unconditionally.
class ScopedChaosActivation {
public:
  explicit ScopedChaosActivation(FaultInjector *Injector);
  ~ScopedChaosActivation();

  ScopedChaosActivation(const ScopedChaosActivation &) = delete;
  ScopedChaosActivation &operator=(const ScopedChaosActivation &) = delete;

private:
  FaultInjector *Previous = nullptr;
  bool Installed = false;
};

#ifdef COGENT_CHAOS_ENABLED

/// True when an injector is installed and \p Site is in its mask and the
/// deterministic draw says "inject now". The instrumented components call
/// this at their injection points.
bool chaosShouldFire(ChaosSite Site);

/// \p Value, multiplicatively perturbed when \p Site fires (identity
/// otherwise). One query per call.
double chaosPerturb(ChaosSite Site, double Value, double Magnitude = 4.0);

#else

inline bool chaosShouldFire(ChaosSite) { return false; }
inline double chaosPerturb(ChaosSite, double Value, double = 4.0) {
  return Value;
}

#endif // COGENT_CHAOS_ENABLED

} // namespace support
} // namespace cogent

#endif // COGENT_SUPPORT_FAULTINJECTION_H

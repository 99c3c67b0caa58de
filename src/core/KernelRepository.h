//===- core/KernelRepository.h - Multi-size kernel versions (§IV-B) --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Implements the paper's multi-representative-size scheme (§IV-B): "When
/// the code generator receives a set of representative problem sizes, it
/// can generate different code versions targeted at each representative
/// problem size. ... the kernel is selected at runtime based on the closest
/// representative". A repository owns every generated version of one
/// contraction expression and answers runtime selection queries.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_CORE_KERNELREPOSITORY_H
#define COGENT_CORE_KERNELREPOSITORY_H

#include "core/Cogent.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace cogent {
namespace core {

/// One generated code version together with the representative size it was
/// tuned for.
struct KernelVersion {
  std::vector<std::pair<char, int64_t>> RepresentativeExtents;
  GeneratedKernel Kernel;
};

/// All code versions of a single contraction expression.
class KernelRepository {
public:
  /// \p Spec in "C-A-B" notation; versions are added per representative
  /// size via addRepresentative().
  KernelRepository(const Cogent &Generator, std::string Spec,
                   CogentOptions Options = CogentOptions())
      : Generator(Generator), Spec(std::move(Spec)),
        Options(std::move(Options)) {}

  const std::string &spec() const { return Spec; }
  size_t numVersions() const { return Versions.size(); }
  const KernelVersion &version(size_t I) const { return Versions[I]; }

  /// Generates and stores a code version tuned for \p Extents. Returns the
  /// version index, or an error for malformed specs/extents.
  ErrorOr<size_t>
  addRepresentative(const std::vector<std::pair<char, int64_t>> &Extents);

  /// Convenience: uniform representative extent.
  ErrorOr<size_t> addRepresentativeUniform(int64_t Extent);

  /// Runtime selection: the stored version whose representative size is
  /// closest to \p ActualExtents in log-space (so 2x too big and 2x too
  /// small are equally distant). \pre numVersions() > 0 and every index of
  /// the expression has an actual extent.
  const KernelVersion &
  selectFor(const std::vector<std::pair<char, int64_t>> &ActualExtents) const;

private:
  const Cogent &Generator;
  std::string Spec;
  CogentOptions Options;
  std::vector<KernelVersion> Versions;
};

/// 64-bit FNV-1a over \p Data: cheap and stable across platforms. It keys
/// the cache shards, checksums cached entries and digests emitted sources
/// for the golden selection table (integrity, not authentication).
uint64_t fnv1a(const std::string &Data);

/// Canonical cache key for one generation request: the spec, the
/// representative extents in input order and the element size. The device
/// is fixed per generator (one ShardedKernelRepository serves one Cogent),
/// and per-run knobs — deadlines, degraded start rungs, chaos seeds — are
/// deliberately excluded: a warm entry answers every variant of the same
/// contraction, which is exactly what lets a deadline-pressured request
/// skip the search entirely on a hit.
std::string contractionSignature(
    const std::string &Spec,
    const std::vector<std::pair<char, int64_t>> &Extents,
    unsigned ElementSize);

/// A concurrent, signature-hash-sharded plan cache for the service layer.
///
/// Each signature lives in exactly one of N shards (FNV-1a of the
/// signature modulo N) guarded by its own mutex, so lookups for different
/// contractions contend only when they collide on a shard — never on one
/// global lock. Generation always happens *outside* any shard lock.
///
/// Integrity: every entry carries an FNV-1a checksum of its kernel source
/// and configuration, validated on every hit. A mismatch (bit rot, or the
/// repository-corrupt chaos site) quarantines the entry — it is evicted
/// and counted, and the lookup proceeds as a miss that regenerates a
/// fresh, fully verified plan. Corruption never crosses a shard boundary:
/// only the owning shard's entry is evicted.
class ShardedKernelRepository {
public:
  static constexpr size_t DefaultNumShards = 16;

  ShardedKernelRepository(const Cogent &Generator,
                          size_t NumShards = DefaultNumShards,
                          CogentOptions Options = CogentOptions());

  /// One lookup's outcome: the (copied) plan plus how it was obtained.
  struct Lookup {
    GeneratedKernel Kernel;
    FallbackLevel Fallback = FallbackLevel::None;
    /// Set when the plan came from the cache (checksum-validated).
    bool CacheHit = false;
    /// Set when this lookup found its cached entry corrupt and evicted it
    /// (the returned plan is freshly regenerated).
    bool Quarantined = false;
    /// Verifier/lint rejections the generation absorbed before producing
    /// the plan (0 on a cache hit). The service's circuit breaker feeds on
    /// these: a signature that keeps rejecting is in trouble even when the
    /// fallback chain ultimately rescues it.
    uint64_t VerifierRejections = 0;
    uint64_t LintRejections = 0;
  };

  /// Serves \p Spec x \p Extents from the cache, or generates, inserts and
  /// returns a fresh plan on a miss. \p Override, when non-null, replaces
  /// the repository's CogentOptions for the *generation* only (deadline
  /// budgets, degraded start rungs, chaos) — it never changes the cache
  /// key. Thread-safe; errors are the generator's typed errors.
  ErrorOr<Lookup>
  lookupOrGenerate(const std::string &Spec,
                   const std::vector<std::pair<char, int64_t>> &Extents,
                   const CogentOptions *Override = nullptr);

  /// Generates unconditionally (no cache lookup) and refreshes the cache
  /// with the fresh plan. For cold-path benchmarking and callers that need
  /// a guaranteed full-pipeline run (circuit-breaker probes).
  ErrorOr<Lookup>
  generateFresh(const std::string &Spec,
                const std::vector<std::pair<char, int64_t>> &Extents,
                const CogentOptions *Override = nullptr);

  size_t numShards() const { return Shards.size(); }
  /// Total cached entries across all shards.
  size_t size() const;
  /// Entries in shard \p I.
  size_t shardSize(size_t I) const;
  /// Which shard \p Signature maps to.
  size_t shardOf(const std::string &Signature) const;

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  uint64_t quarantined() const {
    return Quarantined.load(std::memory_order_relaxed);
  }

private:
  struct Entry {
    GeneratedKernel Kernel;
    FallbackLevel Fallback = FallbackLevel::None;
    uint64_t Checksum = 0;
  };
  struct Shard {
    mutable std::mutex Lock;
    std::unordered_map<std::string, Entry> Entries;
  };

  ErrorOr<Lookup>
  generateInto(Shard &S, const std::string &Signature,
               const std::string &Spec,
               const std::vector<std::pair<char, int64_t>> &Extents,
               const CogentOptions *Override, bool WasQuarantine);

  const Cogent &Generator;
  CogentOptions Options;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> Quarantined{0};
};

} // namespace core
} // namespace cogent

#endif // COGENT_CORE_KERNELREPOSITORY_H

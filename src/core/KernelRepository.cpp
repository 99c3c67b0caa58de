//===- core/KernelRepository.cpp -----------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/KernelRepository.h"

#include "support/FaultInjection.h"
#include "support/Trace.h"

#include <cassert>
#include <cmath>
#include <limits>

using namespace cogent;
using namespace cogent::core;

uint64_t cogent::core::fnv1a(const std::string &Data) {
  uint64_t Hash = 0xcbf29ce484222325ull;
  for (unsigned char Ch : Data) {
    Hash ^= Ch;
    Hash *= 0x100000001b3ull;
  }
  return Hash;
}

ErrorOr<size_t> KernelRepository::addRepresentative(
    const std::vector<std::pair<char, int64_t>> &Extents) {
  ErrorOr<GenerationResult> Result =
      Generator.generate(Spec, Extents, Options);
  if (!Result)
    return Result.takeError().withContext("adding representative size");
  assert(!Result->empty() && "generate() returned an empty kernel list");
  KernelVersion Version;
  Version.RepresentativeExtents = Extents;
  Version.Kernel = std::move(Result->Kernels.front());
  Versions.push_back(std::move(Version));
  return Versions.size() - 1;
}

ErrorOr<size_t> KernelRepository::addRepresentativeUniform(int64_t Extent) {
  std::vector<std::pair<char, int64_t>> Extents;
  for (char C = 'a'; C <= 'z'; ++C)
    if (Spec.find(C) != std::string::npos)
      Extents.emplace_back(C, Extent);
  return addRepresentative(Extents);
}

const KernelVersion &KernelRepository::selectFor(
    const std::vector<std::pair<char, int64_t>> &ActualExtents) const {
  assert(!Versions.empty() && "selection from an empty repository");

  auto extentOf = [](const std::vector<std::pair<char, int64_t>> &Extents,
                     char Name) -> int64_t {
    for (const auto &[N, E] : Extents)
      if (N == Name)
        return E;
    return -1;
  };

  size_t BestIdx = 0;
  double BestDistance = std::numeric_limits<double>::infinity();
  for (size_t I = 0; I < Versions.size(); ++I) {
    double Distance = 0.0;
    for (const auto &[Name, RepExtent] :
         Versions[I].RepresentativeExtents) {
      int64_t Actual = extentOf(ActualExtents, Name);
      assert(Actual > 0 && "actual extent missing for an index");
      double LogRatio = std::log(static_cast<double>(Actual) /
                                 static_cast<double>(RepExtent));
      Distance += LogRatio * LogRatio;
    }
    if (Distance < BestDistance) {
      BestDistance = Distance;
      BestIdx = I;
    }
  }
  return Versions[BestIdx];
}

//===----------------------------------------------------------------------===//
// ShardedKernelRepository
//===----------------------------------------------------------------------===//

std::string cogent::core::contractionSignature(
    const std::string &Spec,
    const std::vector<std::pair<char, int64_t>> &Extents,
    unsigned ElementSize) {
  std::string Sig = Spec;
  Sig += '|';
  for (const auto &[Name, Extent] : Extents) {
    Sig += Name;
    Sig += '=';
    Sig += std::to_string(Extent);
    Sig += ',';
  }
  Sig += "es=";
  Sig += std::to_string(ElementSize);
  return Sig;
}

/// The integrity payload of one cached plan: everything a consumer would
/// act on. A flipped bit anywhere in here must fail the checksum.
static uint64_t entryChecksum(const GeneratedKernel &Kernel,
                              FallbackLevel Fallback) {
  std::string Payload = Kernel.Config.toString();
  Payload += '\x1f';
  Payload += Kernel.Source.KernelSource;
  Payload += '\x1f';
  Payload += Kernel.Source.DriverSource;
  Payload += '\x1f';
  Payload += fallbackLevelName(Fallback);
  return fnv1a(Payload);
}

ShardedKernelRepository::ShardedKernelRepository(const Cogent &Generator,
                                                 size_t NumShards,
                                                 CogentOptions Options)
    : Generator(Generator), Options(std::move(Options)) {
  if (NumShards == 0)
    NumShards = 1;
  Shards.reserve(NumShards);
  for (size_t I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

size_t ShardedKernelRepository::shardOf(const std::string &Signature) const {
  return static_cast<size_t>(fnv1a(Signature) % Shards.size());
}

size_t ShardedKernelRepository::size() const {
  size_t Total = 0;
  for (size_t I = 0; I < Shards.size(); ++I)
    Total += shardSize(I);
  return Total;
}

size_t ShardedKernelRepository::shardSize(size_t I) const {
  assert(I < Shards.size());
  std::lock_guard<std::mutex> Guard(Shards[I]->Lock);
  return Shards[I]->Entries.size();
}

ErrorOr<ShardedKernelRepository::Lookup> ShardedKernelRepository::generateInto(
    Shard &S, const std::string &Signature, const std::string &Spec,
    const std::vector<std::pair<char, int64_t>> &Extents,
    const CogentOptions *Override, bool WasQuarantine) {
  // Generation runs outside any shard lock: it is the slow path, and
  // holding the lock across it would serialize every other signature in
  // the shard behind this one.
  const CogentOptions &GenOptions = Override ? *Override : Options;
  ErrorOr<GenerationResult> Result =
      Generator.generate(Spec, Extents, GenOptions);
  if (!Result)
    return Result.takeError().withContext("sharded repository generating '" +
                                          Signature + "'");
  assert(!Result->empty() && "generate() returned an empty kernel list");

  Lookup Out;
  Out.Kernel = Result->Kernels.front();
  Out.Fallback = Result->Fallback;
  Out.CacheHit = false;
  Out.Quarantined = WasQuarantine;
  Out.VerifierRejections = Result->verifierRejections();
  Out.LintRejections = Result->lintRejections();

  Entry Fresh;
  Fresh.Kernel = Out.Kernel;
  Fresh.Fallback = Out.Fallback;
  Fresh.Checksum = entryChecksum(Fresh.Kernel, Fresh.Fallback);
  {
    std::lock_guard<std::mutex> Guard(S.Lock);
    // First writer wins on a duplicate race; both plans are verified and
    // deterministic generation makes them identical anyway.
    S.Entries.emplace(Signature, std::move(Fresh));
  }
  return Out;
}

ErrorOr<ShardedKernelRepository::Lookup>
ShardedKernelRepository::lookupOrGenerate(
    const std::string &Spec,
    const std::vector<std::pair<char, int64_t>> &Extents,
    const CogentOptions *Override) {
  const std::string Signature = contractionSignature(
      Spec, Extents, (Override ? *Override : Options).ElementSize);
  Shard &S = *Shards[shardOf(Signature)];
  bool WasQuarantine = false;
  {
    std::lock_guard<std::mutex> Guard(S.Lock);
    auto It = S.Entries.find(Signature);
    if (It != S.Entries.end()) {
      // Chaos site: bit rot in the in-memory store. Corrupting the stored
      // entry (not the copy we hand out) models a bad cell: the checksum
      // below must catch it and quarantine the entry, never serve it.
      if (support::chaosShouldFire(support::ChaosSite::RepositoryCorrupt)) {
        support::FaultInjector *Injector = support::activeFaultInjector();
        std::string &Stored = It->second.Kernel.Source.KernelSource;
        for (size_t I = 0; I < Stored.size(); I += 53)
          Stored[I] = static_cast<char>(Injector->corruptByte(I));
      }
      if (entryChecksum(It->second.Kernel, It->second.Fallback) ==
          It->second.Checksum) {
        Lookup Out;
        Out.Kernel = It->second.Kernel;
        Out.Fallback = It->second.Fallback;
        Out.CacheHit = true;
        Hits.fetch_add(1, std::memory_order_relaxed);
        return Out;
      }
      // Quarantine: evict the corrupt entry. The lookup degrades to a
      // miss — corrupt data is never served, and the only cost is a
      // regeneration.
      S.Entries.erase(It);
      WasQuarantine = true;
      Quarantined.fetch_add(1, std::memory_order_relaxed);
      support::traceInstant("repository.quarantine",
                            {{"signature", Signature}});
    }
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return generateInto(S, Signature, Spec, Extents, Override, WasQuarantine);
}

ErrorOr<ShardedKernelRepository::Lookup>
ShardedKernelRepository::generateFresh(
    const std::string &Spec,
    const std::vector<std::pair<char, int64_t>> &Extents,
    const CogentOptions *Override) {
  const std::string Signature = contractionSignature(
      Spec, Extents, (Override ? *Override : Options).ElementSize);
  Shard &S = *Shards[shardOf(Signature)];
  {
    // Refresh semantics: drop any cached entry so the fresh plan replaces
    // it (generateInto's emplace would otherwise keep the stale one).
    std::lock_guard<std::mutex> Guard(S.Lock);
    S.Entries.erase(Signature);
  }
  Misses.fetch_add(1, std::memory_order_relaxed);
  return generateInto(S, Signature, Spec, Extents, Override,
                      /*WasQuarantine=*/false);
}

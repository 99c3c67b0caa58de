//===- core/KernelRepository.cpp -----------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "core/KernelRepository.h"

#include "support/Counters.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include <cassert>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

using namespace cogent;
using namespace cogent::core;

COGENT_COUNTER(NumCacheEntriesLoaded, "repository.entries-loaded",
               "intact on-disk cache entries re-generated into versions");
COGENT_COUNTER(NumCacheMisses, "repository.cache-misses",
               "on-disk cache entries rejected as corrupt/truncated/"
               "version-mismatched");
/// The on-disk cache format version. Bump on any layout change: a mismatch
/// is a full cache miss, never a best-effort parse of an older layout.
static const char *const RepoMagic = "COGENTREPO v2";

/// FNV-1a over the entry payload; cheap, stable across platforms, and
/// plenty to catch bit rot and truncation (this is integrity, not
/// authentication).
static uint64_t fnv1a(const std::string &Data) {
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

ErrorOr<void> KernelRepository::saveToFile(const std::string &Path) const {
  std::ostringstream OS;
  OS << RepoMagic << "\n";
  OS << "spec " << Spec << "\n";
  for (const KernelVersion &Version : Versions) {
    std::ostringstream Payload;
    Payload << Spec;
    for (const auto &[Name, Extent] : Version.RepresentativeExtents)
      Payload << " " << Name << "=" << Extent;
    OS << "entry" << Payload.str().substr(Spec.size()) << " fnv1a="
       << std::hex << fnv1a(Payload.str()) << std::dec << "\n";
  }
  std::ofstream File(Path, std::ios::trunc);
  if (!File || !(File << OS.str()) || !File.flush())
    return Error(ErrorCode::CorruptCache,
                 "cannot write repository cache '" + Path + "'");
  return {};
}

ErrorOr<size_t>
KernelRepository::loadFromFile(const std::string &Path,
                               std::vector<Error> *Warnings) {
  std::ifstream File(Path);
  if (!File)
    return Error(ErrorCode::CorruptCache,
                 "cannot read repository cache '" + Path + "'");
  std::ostringstream Buffer;
  Buffer << File.rdbuf();
  std::string Content = Buffer.str();

  // Chaos site: bit rot on the cache medium. Corrupting the in-memory copy
  // after the read models a bad sector without touching the real file; the
  // checksum/parse hardening below must absorb it as a miss.
  if (support::chaosShouldFire(support::ChaosSite::RepositoryCorrupt)) {
    support::FaultInjector *Injector = support::activeFaultInjector();
    for (size_t I = 0; I < Content.size(); I += 37)
      Content[I] = static_cast<char>(Injector->corruptByte(I));
  }

  auto Warn = [&](std::string Message) {
    ++NumCacheMisses;
    if (Warnings)
      Warnings->push_back(Error(ErrorCode::CorruptCache, std::move(Message))
                              .withContext("loading '" + Path + "'"));
  };

  std::istringstream Lines(Content);
  std::string Line;
  if (!std::getline(Lines, Line) || Line != RepoMagic)
    return Error(ErrorCode::CorruptCache,
                 "repository cache '" + Path +
                     "' has a missing or incompatible version header "
                     "(expected '" + std::string(RepoMagic) + "')");
  if (!std::getline(Lines, Line) || Line.rfind("spec ", 0) != 0) {
    Warn("cache truncated before the spec line");
    return size_t(0);
  }
  if (Line.substr(5) != Spec) {
    Warn("cache is for contraction '" + Line.substr(5) +
         "', not this repository's '" + Spec + "'");
    return size_t(0);
  }

  size_t Loaded = 0;
  unsigned LineNo = 2;
  while (std::getline(Lines, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Tag;
    LS >> Tag;
    if (Tag != "entry") {
      Warn("line " + std::to_string(LineNo) + ": unrecognized record '" +
           Tag + "'");
      continue;
    }
    std::vector<std::pair<char, int64_t>> Extents;
    std::string Token;
    std::optional<uint64_t> Checksum;
    bool Malformed = false;
    std::ostringstream Payload;
    Payload << Spec;
    while (LS >> Token) {
      if (Token.rfind("fnv1a=", 0) == 0) {
        const char *Digits = Token.c_str() + 6;
        char *End = nullptr;
        unsigned long long Value = std::strtoull(Digits, &End, 16);
        if (End != Digits && *End == '\0')
          Checksum = static_cast<uint64_t>(Value);
        else
          Malformed = true;
        break;
      }
      char Name = 0;
      long long Extent = 0;
      char Eq = 0;
      std::istringstream TS(Token);
      if (!(TS >> Name >> Eq >> Extent) || Eq != '=' || Name < 'a' ||
          Name > 'z' || Extent <= 0) {
        Malformed = true;
        break;
      }
      Extents.emplace_back(Name, static_cast<int64_t>(Extent));
      Payload << " " << Name << "=" << Extent;
    }
    if (Malformed || Extents.empty()) {
      Warn("line " + std::to_string(LineNo) + ": malformed cache entry");
      continue;
    }
    if (!Checksum) {
      Warn("line " + std::to_string(LineNo) +
           ": entry is truncated (no checksum)");
      continue;
    }
    if (*Checksum != fnv1a(Payload.str())) {
      Warn("line " + std::to_string(LineNo) +
           ": checksum mismatch (corrupt entry)");
      continue;
    }
    // Intact entry: re-generate rather than trusting any serialized kernel,
    // so a loaded version is exactly as verified as a fresh one.
    ErrorOr<size_t> Added = addRepresentative(Extents);
    if (!Added) {
      Warn("line " + std::to_string(LineNo) + ": entry re-generation failed: " +
           Added.errorMessage());
      continue;
    }
    ++NumCacheEntriesLoaded;
    ++Loaded;
  }
  return Loaded;
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

size_t ShardedKernelRepository::suspectShards() const {
  size_t Count = 0;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Guard(S->Lock);
    Count += S->Suspect ? 1 : 0;
  }
  return Count;
}

void ShardedKernelRepository::mirrorMetrics(
    support::MetricRegistry &Registry) const {
  Registry.counter("cache.hits", "plan-cache checksum-valid hits")
      .bridgeTo(hits());
  Registry.counter("cache.misses", "plan-cache misses (fresh generations)")
      .bridgeTo(misses());
  Registry
      .counter("cache.quarantined",
               "corrupt plan-cache entries evicted on hit or rebuild")
      .bridgeTo(quarantined());
  Registry
      .counter("cache.rebuilt",
               "quarantined entries regenerated by repair passes")
      .bridgeTo(rebuilt());
  Registry.gauge("cache.size", "cached plans across all shards")
      .set(static_cast<double>(size()));
  Registry
      .gauge("cache.suspect-shards",
             "shards quarantined since the last repair pass")
      .set(static_cast<double>(suspectShards()));
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
  Fresh.Extents = Extents;
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
      // Quarantine: evict the corrupt entry and mark the shard suspect so
      // rebuildQuarantined rescans its neighbors. The lookup degrades to a
      // miss — corrupt data is never served, and the only cost is a
      // regeneration.
      S.Entries.erase(It);
      S.Suspect = true;
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

size_t ShardedKernelRepository::rebuildQuarantined() {
  size_t RebuiltNow = 0;
  for (std::unique_ptr<Shard> &S : Shards) {
    // Collect this shard's corrupt survivors under the lock, then
    // regenerate them outside it (generation must never run locked).
    std::vector<std::pair<std::string,
                          std::vector<std::pair<char, int64_t>>>> ToRebuild;
    {
      std::lock_guard<std::mutex> Guard(S->Lock);
      if (!S->Suspect)
        continue;
      for (auto It = S->Entries.begin(); It != S->Entries.end();) {
        if (entryChecksum(It->second.Kernel, It->second.Fallback) !=
            It->second.Checksum) {
          ToRebuild.emplace_back(It->first, It->second.Extents);
          Quarantined.fetch_add(1, std::memory_order_relaxed);
          It = S->Entries.erase(It);
        } else {
          ++It;
        }
      }
      S->Suspect = false;
    }
    for (const auto &[Signature, Extents] : ToRebuild) {
      // Reconstruct the spec from the signature prefix (everything before
      // the first '|'); extents were stored alongside the entry.
      std::string Spec = Signature.substr(0, Signature.find('|'));
      ErrorOr<Lookup> Fresh =
          generateInto(*S, Signature, Spec, Extents, nullptr, true);
      if (!Fresh)
        continue; // the entry stays evicted; the next lookup retries
      Rebuilt.fetch_add(1, std::memory_order_relaxed);
      ++RebuiltNow;
    }
  }
  return RebuiltNow;
}

//===- support/Metrics.cpp ------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Metrics.h"

#include "support/JsonWriter.h"
#include "support/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

using namespace cogent;
using namespace cogent::support;

//===----------------------------------------------------------------------===//
// LatencyHistogram
//===----------------------------------------------------------------------===//

double LatencyHistogram::maxTrackableMs() {
  return MinTrackableMs * std::exp2(static_cast<double>(Octaves));
}

double LatencyHistogram::quantileErrorBound() {
  return std::exp2(1.0 / (2.0 * SubBucketsPerOctave)) - 1.0;
}

double LatencyHistogram::bucketLowerMs(unsigned I) {
  if (I == 0)
    return 0.0;
  return MinTrackableMs *
         std::exp2(static_cast<double>(I - 1) / SubBucketsPerOctave);
}

double LatencyHistogram::bucketUpperMs(unsigned I) {
  if (I >= NumBuckets - 1)
    return std::numeric_limits<double>::infinity();
  return MinTrackableMs *
         std::exp2(static_cast<double>(I) / SubBucketsPerOctave);
}

unsigned LatencyHistogram::bucketIndex(double Ms) {
  if (!(Ms >= MinTrackableMs)) // NaN and negatives underflow too
    return 0;
  double Raw = std::log2(Ms / MinTrackableMs) * SubBucketsPerOctave;
  Raw = std::clamp(Raw, 0.0, static_cast<double>(NumBuckets));
  unsigned I = 1 + static_cast<unsigned>(Raw);
  if (I >= NumBuckets)
    I = NumBuckets - 1;
  // log2 rounding can land a boundary value one bucket off either way;
  // nudge until the bucket's half-open range [lower, upper) contains Ms,
  // which makes boundary placement exact and deterministic.
  while (I > 1 && Ms < bucketLowerMs(I))
    --I;
  while (I < NumBuckets - 1 && Ms >= bucketUpperMs(I))
    ++I;
  return I;
}

void LatencyHistogram::record(double Ms) {
  if (std::isnan(Ms))
    Ms = 0.0;
  ++Counts_[bucketIndex(Ms)];
  if (Count_ == 0) {
    MinMs_ = MaxMs_ = Ms;
  } else {
    MinMs_ = std::min(MinMs_, Ms);
    MaxMs_ = std::max(MaxMs_, Ms);
  }
  ++Count_;
  SumMs_ += Ms;
}

void LatencyHistogram::merge(const LatencyHistogram &Other) {
  if (Other.Count_ == 0)
    return;
  for (unsigned I = 0; I < NumBuckets; ++I)
    Counts_[I] += Other.Counts_[I];
  if (Count_ == 0) {
    MinMs_ = Other.MinMs_;
    MaxMs_ = Other.MaxMs_;
  } else {
    MinMs_ = std::min(MinMs_, Other.MinMs_);
    MaxMs_ = std::max(MaxMs_, Other.MaxMs_);
  }
  Count_ += Other.Count_;
  SumMs_ += Other.SumMs_;
}

double LatencyHistogram::quantileMs(double P) const {
  if (Count_ == 0)
    return 0.0;
  P = std::clamp(P, 0.0, 100.0);
  // The order statistic at rank ceil(P/100 * N), rank 1 = min.
  uint64_t Rank = static_cast<uint64_t>(
      std::ceil((P / 100.0) * static_cast<double>(Count_)));
  Rank = std::clamp<uint64_t>(Rank, 1, Count_);
  uint64_t Cum = 0;
  unsigned Bucket = NumBuckets - 1;
  for (unsigned I = 0; I < NumBuckets; ++I) {
    Cum += Counts_[I];
    if (Cum >= Rank) {
      Bucket = I;
      break;
    }
  }
  double Estimate;
  if (Bucket == 0)
    Estimate = MinMs_; // underflow: exact min is the best statement
  else if (Bucket == NumBuckets - 1)
    Estimate = MaxMs_; // overflow: exact max
  else
    Estimate = std::sqrt(bucketLowerMs(Bucket) * bucketUpperMs(Bucket));
  // Clamping into the observed range never hurts the bound and makes
  // single-sample and uniform distributions exact.
  return std::clamp(Estimate, MinMs_, MaxMs_);
}

void LatencyHistogram::writeJson(JsonWriter &W) const {
  W.beginObject();
  W.member("count", Count_);
  W.member("sum_ms", SumMs_);
  W.member("min_ms", minMs());
  W.member("max_ms", maxMs());
  W.member("mean_ms", meanMs());
  W.member("p50_ms", quantileMs(50.0));
  W.member("p90_ms", quantileMs(90.0));
  W.member("p99_ms", quantileMs(99.0));
  W.member("p999_ms", quantileMs(99.9));
  W.endObject();
}

//===----------------------------------------------------------------------===//
// ConcurrentHistogram
//===----------------------------------------------------------------------===//

ConcurrentHistogram::ConcurrentHistogram(size_t NumShards) {
  if (NumShards == 0)
    NumShards = 1;
  Shards.reserve(NumShards);
  for (size_t I = 0; I < NumShards; ++I)
    Shards.push_back(std::make_unique<Shard>());
}

void ConcurrentHistogram::record(double Ms) {
  Shard &S = *Shards[traceThreadId() % Shards.size()];
  std::lock_guard<std::mutex> Guard(S.Lock);
  S.Hist.record(Ms);
}

LatencyHistogram ConcurrentHistogram::merged() const {
  LatencyHistogram Out;
  for (const std::unique_ptr<Shard> &S : Shards) {
    std::lock_guard<std::mutex> Guard(S->Lock);
    Out.merge(S->Hist);
  }
  return Out;
}

LatencyHistogram ConcurrentHistogram::shardSnapshot(size_t I) const {
  assert(I < Shards.size() && "shard index out of range");
  std::lock_guard<std::mutex> Guard(Shards[I]->Lock);
  return Shards[I]->Hist;
}

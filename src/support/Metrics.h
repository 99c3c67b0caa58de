//===- support/Metrics.h - Service latency histograms ---------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The service's latency distributions. Where support/Counters.h gives
/// the *pipeline* its per-run tallies and support/Trace.h its spans, this
/// file gives the *service* layer two bounded histograms it owns directly
/// (GenerationService's latency and queue-wait fields):
///
///  - LatencyHistogram: a bounded log-scale latency histogram with
///    p50/p90/p99/p999 quantile estimation. Memory is O(1) regardless of
///    sample count and two histograms merge by bucket-wise addition, so
///    per-worker shards combine into one distribution.
///  - ConcurrentHistogram: N mutex-guarded LatencyHistogram shards keyed
///    by the calling thread, merged on demand.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_METRICS_H
#define COGENT_SUPPORT_METRICS_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace cogent {
namespace support {

class JsonWriter;

/// A bounded log-scale histogram of millisecond latencies.
///
/// Bucket layout: bucket 0 is the underflow bucket (samples below
/// MinTrackableMs, including zero/negative); buckets 1..N-2 cover
/// [MinTrackableMs, MaxTrackableMs) with SubBucketsPerOctave buckets per
/// power of two (bucket ratio 2^(1/SubBucketsPerOctave)); bucket N-1 is
/// the overflow bucket. Quantiles report the geometric mean of the
/// selected bucket's bounds, clamped into the observed [min, max], so for
/// in-range samples the estimate is within a relative factor of
/// sqrt(bucket ratio) of the true order statistic — quantileErrorBound(),
/// about 4.4% at the default 8 sub-buckets per octave. Underflow and
/// overflow quantiles report the exactly-tracked min/max.
///
/// This is a plain value type (copyable, mergeable, not thread-safe);
/// ConcurrentHistogram adds the locking.
class LatencyHistogram {
public:
  /// ~0.98 microseconds: finer than anything the service can produce.
  static constexpr double MinTrackableMs = 1.0 / 1024.0;
  static constexpr unsigned SubBucketsPerOctave = 8;
  /// 28 octaves above MinTrackableMs: MaxTrackableMs ~= 262 seconds.
  static constexpr unsigned Octaves = 28;
  static constexpr unsigned NumBuckets = 2 + Octaves * SubBucketsPerOctave;

  /// Upper edge of the last regular bucket; samples at or above it land
  /// in the overflow bucket.
  static double maxTrackableMs();

  /// The documented relative error of quantileMs for in-range samples:
  /// 2^(1/(2*SubBucketsPerOctave)) - 1.
  static double quantileErrorBound();

  /// Bucket index for \p Ms (boundary values land in the bucket whose
  /// lower edge they equal).
  static unsigned bucketIndex(double Ms);
  /// Lower/upper edge of bucket \p I. Bucket 0's lower edge is 0; the
  /// overflow bucket's upper edge is +inf.
  static double bucketLowerMs(unsigned I);
  static double bucketUpperMs(unsigned I);

  void record(double Ms);

  /// Bucket-wise addition; min/max/sum/count combine exactly. The shard
  /// merge the service's per-worker histograms rely on.
  void merge(const LatencyHistogram &Other);

  uint64_t count() const { return Count_; }
  double sumMs() const { return SumMs_; }
  /// 0 when empty.
  double minMs() const { return Count_ ? MinMs_ : 0.0; }
  double maxMs() const { return Count_ ? MaxMs_ : 0.0; }
  double meanMs() const {
    return Count_ ? SumMs_ / static_cast<double>(Count_) : 0.0;
  }
  uint64_t bucketCount(unsigned I) const { return Counts_[I]; }

  /// The \p P-th percentile estimate (P in [0, 100]); 0 when empty. See
  /// the class comment for the error bound.
  double quantileMs(double P) const;

  /// Writes {"count":..,"sum_ms":..,"min_ms":..,"max_ms":..,"mean_ms":..,
  /// "p50_ms":..,"p90_ms":..,"p99_ms":..,"p999_ms":..} into \p W (the
  /// writer must be positioned where a value is expected).
  void writeJson(JsonWriter &W) const;

private:
  std::array<uint64_t, NumBuckets> Counts_{};
  uint64_t Count_ = 0;
  double SumMs_ = 0.0;
  double MinMs_ = 0.0;
  double MaxMs_ = 0.0;
};

/// A thread-safe histogram: per-thread-sharded LatencyHistogram instances,
/// each behind its own mutex, merged on demand. record() touches only the
/// calling thread's shard, so concurrent workers contend only when the
/// dense thread id hashes collide.
class ConcurrentHistogram {
public:
  explicit ConcurrentHistogram(size_t NumShards = 8);

  ConcurrentHistogram(const ConcurrentHistogram &) = delete;
  ConcurrentHistogram &operator=(const ConcurrentHistogram &) = delete;

  void record(double Ms);

  /// All shards merged into one distribution.
  LatencyHistogram merged() const;

  size_t numShards() const { return Shards.size(); }
  /// Copy of one shard's histogram (tests assert the shard-merge law).
  LatencyHistogram shardSnapshot(size_t I) const;

private:
  struct Shard {
    mutable std::mutex Lock;
    LatencyHistogram Hist;
  };
  std::vector<std::unique_ptr<Shard>> Shards;
};

} // namespace support
} // namespace cogent

#endif // COGENT_SUPPORT_METRICS_H

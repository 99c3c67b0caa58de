//===- support/Metrics.h - Service metrics registry and histograms --------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The continuously-measured half of the observability layer. Where
/// support/Counters.h gives the *pipeline* its always-on monotonic tallies
/// and support/Trace.h its per-run spans, this file gives the *service*
/// layer live, queryable operational metrics:
///
///  - LatencyHistogram: a bounded log-scale latency histogram with
///    p50/p90/p99/p999 quantile estimation. Memory is O(1) regardless of
///    sample count (the fix for the service's old unbounded LatenciesMs
///    vector) and two histograms merge by bucket-wise addition, so
///    per-worker shards combine into one distribution without locks on
///    the hot path's critical section.
///  - ConcurrentHistogram: N mutex-guarded LatencyHistogram shards keyed
///    by the calling thread, merged on demand.
///  - MetricRegistry: a thread-safe name -> metric table of monotonic
///    counters, gauges and histograms with two deterministic exporters:
///    a JSON object (via the repo's own JsonWriter) and the Prometheus
///    text exposition format (counters/gauges as-is, histograms as
///    quantile summaries). A registry counter is the store of the fact it
///    counts (the service's request tallies); only facts stored elsewhere
///    — the process counter table, the plan cache's atomics — are
///    mirrored in with MetricCounter::bridgeTo before an export.
///
/// Naming convention matches Counters.h: "<component>.<noun>" kebab-case
/// ("service.latency-ms"); the Prometheus renderer sanitizes to
/// [a-zA-Z0-9_] and prefixes a namespace ("cogent_service_latency_ms").
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_METRICS_H
#define COGENT_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace cogent {
namespace support {

class JsonWriter;

/// The closed set of metric kinds a registry can hold. Serialized into
/// exporter output; the name table is pinned by test_name_tables.
enum class MetricKind : unsigned {
  Counter,   ///< Monotonically non-decreasing uint64.
  Gauge,     ///< Instantaneous double, may move both ways.
  Histogram, ///< Bounded log-scale latency distribution.
};

/// Number of MetricKind enumerators; keep in sync when extending the enum
/// (the name-table round-trip test walks [0, NumMetricKinds)).
inline constexpr unsigned NumMetricKinds = 3;

/// "counter", "gauge" or "histogram".
const char *metricKindName(MetricKind Kind);

/// Inverse of metricKindName; nullopt for unknown strings.
std::optional<MetricKind> metricKindFromName(const std::string &Name);

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

/// A monotonic registry counter. Handles returned by MetricRegistry stay
/// valid for the registry's lifetime.
class MetricCounter {
public:
  void add(uint64_t N = 1) { Value_.fetch_add(N, std::memory_order_relaxed); }
  /// Raises the counter to \p V if below it (never decreases): the bridge
  /// for mirroring a monotonic tally whose store lives elsewhere — the
  /// process-wide support::Counter table, the plan cache's atomics — into
  /// the registry.
  void bridgeTo(uint64_t V) {
    uint64_t Cur = Value_.load(std::memory_order_relaxed);
    while (Cur < V &&
           !Value_.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }
  uint64_t value() const { return Value_.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> Value_{0};
};

/// An instantaneous registry gauge.
class MetricGauge {
public:
  void set(double V) { Value_.store(V, std::memory_order_relaxed); }
  double value() const { return Value_.load(std::memory_order_relaxed); }

private:
  std::atomic<double> Value_{0.0};
};

/// Thread-safe name -> metric table with deterministic (name-sorted)
/// exporters. Metrics are get-or-create and never removed; the returned
/// references stay valid for the registry's lifetime. Re-asking for a
/// name with a different kind is a programming error (asserted).
class MetricRegistry {
public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry &) = delete;
  MetricRegistry &operator=(const MetricRegistry &) = delete;

  MetricCounter &counter(const std::string &Name,
                         const std::string &Help = "");
  MetricGauge &gauge(const std::string &Name, const std::string &Help = "");
  ConcurrentHistogram &histogram(const std::string &Name,
                                 const std::string &Help = "",
                                 size_t NumShards = 8);

  /// The registered kind of \p Name, or nullopt when absent.
  std::optional<MetricKind> kindOf(const std::string &Name) const;

  /// Writes one JSON object {"counters":{...},"gauges":{...},
  /// "histograms":{name:{count,...,p999_ms},...}} with name-sorted keys
  /// into \p W.
  void writeJson(JsonWriter &W) const;
  /// writeJson as a standalone string.
  std::string renderJson() const;

  /// Prometheus text exposition format: counters ("_total" suffix) and
  /// gauges as single samples, histograms as quantile summaries
  /// ({quantile="0.5"|"0.9"|"0.99"|"0.999"} plus _sum/_count). Metric
  /// names are sanitized to [a-zA-Z0-9_] and prefixed with
  /// "<Namespace>_". Deterministic: name-sorted, trailing newline.
  std::string renderPrometheus(const std::string &Namespace = "cogent") const;

private:
  struct Entry {
    MetricKind Kind;
    std::string Help;
    std::unique_ptr<MetricCounter> Counter;
    std::unique_ptr<MetricGauge> Gauge;
    std::unique_ptr<ConcurrentHistogram> Histogram;
  };

  Entry &getOrCreate(const std::string &Name, MetricKind Kind,
                     const std::string &Help, size_t NumShards);

  mutable std::mutex Lock;
  /// std::map: sorted iteration gives the exporters their determinism.
  std::map<std::string, Entry> Entries;
};

/// Sanitizes \p Name for Prometheus: every character outside
/// [a-zA-Z0-9_] becomes '_'; a leading digit gains a '_' prefix.
std::string prometheusName(const std::string &Name);

/// Bridges the process-wide support::Counter table (snapshotCounters)
/// into \p Registry as monotonic counters named "process.<name>". Safe to
/// call repeatedly — values only ratchet upward. Defined in Counters.cpp
/// next to the snapshot it consumes.
void bridgeProcessCounters(MetricRegistry &Registry);

} // namespace support
} // namespace cogent

#endif // COGENT_SUPPORT_METRICS_H

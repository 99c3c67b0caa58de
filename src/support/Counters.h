//===- support/Counters.h - Named monotonic pipeline counters -------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-STATISTIC-style named counters: each pipeline component declares
/// file-static Counter objects (via COGENT_COUNTER) that register themselves
/// in a process-wide intrusive list at construction. Counters are monotonic,
/// thread-safe (relaxed atomics) and always on — incrementing one is a
/// single relaxed fetch_add, cheap enough to leave in hot paths.
///
/// Per-run attribution: Cogent::generate opens a CounterScope for the
/// duration of a run and stores its per-thread delta in
/// GenerationResult::Counters. A scope only observes increments made on
/// its own thread, so concurrent generate() calls each get exact
/// attribution even though the registry itself is process-wide.
/// (snapshotCounters remains for whole-process views, where cross-thread
/// bleed is the desired semantics.)
///
/// The table holds process-wide pipeline facts only. The service's
/// request tallies live in its MetricRegistry (support/Metrics.h) and the
/// plan cache's in ShardedKernelRepository's atomics; none is mirrored
/// here, so every fact has one store and one exported name.
///
/// Naming convention: "<component>.<noun>" in kebab-case, e.g.
/// "enumerator.hardware-pruned" — see docs/ARCHITECTURE.md §10.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_COUNTERS_H
#define COGENT_SUPPORT_COUNTERS_H

#include <atomic>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cogent {
namespace support {

class JsonWriter;
class Counter;
class CounterScope;

namespace counters_detail {
/// Innermost CounterScope active on this thread (nullptr almost always);
/// checked inline so the unscoped hot path stays one relaxed fetch_add
/// plus one thread-local load. constinit makes it a constant-initialized
/// TLS variable, so other translation units read it directly instead of
/// through a lazy-initialization wrapper.
extern constinit thread_local CounterScope *ActiveScope;
/// Out-of-line slow path: credits \p N to every scope on this thread's
/// active chain.
void recordScoped(const Counter *C, uint64_t N);
} // namespace counters_detail

/// One named monotonic counter. Construct with static storage duration only
/// (the registry keeps a pointer and never unregisters).
class Counter {
public:
  Counter(const char *Name, const char *Description);

  void add(uint64_t N) {
    Value.fetch_add(N, std::memory_order_relaxed);
    if (counters_detail::ActiveScope)
      counters_detail::recordScoped(this, N);
  }
  Counter &operator+=(uint64_t N) {
    add(N);
    return *this;
  }
  Counter &operator++() {
    add(1);
    return *this;
  }

  uint64_t value() const { return Value.load(std::memory_order_relaxed); }
  const char *name() const { return Name; }
  const char *description() const { return Description; }

private:
  friend std::vector<struct CounterValue> snapshotCounters();
  friend class CounterScope;

  const char *Name;
  const char *Description;
  std::atomic<uint64_t> Value{0};
  Counter *Next = nullptr; // intrusive registry link
};

/// One counter's value at snapshot time. Name/Description point at the
/// counter's static strings and stay valid for the process lifetime.
struct CounterValue {
  const char *Name = nullptr;
  const char *Description = nullptr;
  uint64_t Value = 0;
};

/// All registered counters, sorted by name for deterministic output.
using CounterSnapshot = std::vector<CounterValue>;
CounterSnapshot snapshotCounters();

/// Writes \p Snapshot as one JSON object {"name": value, ...} into \p W
/// (the writer must be positioned where a value is expected).
void writeCountersJson(JsonWriter &W, const CounterSnapshot &Snapshot);

/// RAII per-run counter attribution. While alive, every Counter increment
/// made *on the constructing thread* is also credited to this scope;
/// take() renders the credits as a full name-sorted table (zero entries
/// retained, same shape as snapshotCounters' output). Scopes nest — an inner
/// scope's increments credit every enclosing scope on the same thread —
/// and increments from other threads are never visible, which is what
/// gives concurrent Cogent::generate calls exact per-run attribution.
class CounterScope {
public:
  CounterScope();
  ~CounterScope();
  CounterScope(const CounterScope &) = delete;
  CounterScope &operator=(const CounterScope &) = delete;

  /// The full counter table with this scope's per-thread deltas.
  CounterSnapshot take() const;

private:
  friend void counters_detail::recordScoped(const Counter *C, uint64_t N);

  std::unordered_map<const Counter *, uint64_t> Deltas;
  CounterScope *Parent = nullptr; ///< Enclosing scope on this thread.
};

} // namespace support
} // namespace cogent

/// Declares a file-static registered counter.
#define COGENT_COUNTER(Var, Name, Desc)                                        \
  static ::cogent::support::Counter Var(Name, Desc)

#endif // COGENT_SUPPORT_COUNTERS_H

//===- support/Counters.h - Named monotonic pipeline counters -------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-STATISTIC-style named counters: each pipeline component declares
/// file-static Counter objects (via COGENT_COUNTER) that register themselves
/// in a process-wide intrusive list at construction. The list holds names
/// and descriptions only; a counter has no process-wide value.
///
/// Per-run attribution: Cogent::generate opens a CounterScope for the
/// duration of a run and stores its per-thread delta in
/// GenerationResult::Counters. An increment credits only the scopes active
/// on its own thread, so concurrent generate() calls each get exact
/// attribution, and an increment outside any scope costs one thread-local
/// load.
///
/// The table holds pipeline facts only. The service's request tallies live
/// in GenerationService's atomic fields and the plan cache's in
/// ShardedKernelRepository's atomics; none is mirrored here, so every fact
/// has one store and one exported name.
///
/// Naming convention: "<component>.<noun>" in kebab-case, e.g.
/// "enumerator.hardware-pruned" — see docs/ARCHITECTURE.md §10.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_COUNTERS_H
#define COGENT_SUPPORT_COUNTERS_H

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace cogent {
namespace support {

class JsonWriter;
class Counter;
class CounterScope;

namespace counters_detail {
/// Innermost CounterScope active on this thread (nullptr when none is);
/// checked inline so the unscoped hot path stays one thread-local load.
/// constinit makes it a constant-initialized TLS variable, so other
/// translation units read it directly instead of through a
/// lazy-initialization wrapper.
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

  const char *name() const { return Name; }
  const char *description() const { return Description; }

private:
  friend class CounterScope;

  const char *Name;
  const char *Description;
  Counter *Next = nullptr; // intrusive registry link
};

/// One counter's value in a scope's table. Name/Description point at the
/// counter's static strings and stay valid for the process lifetime.
struct CounterValue {
  const char *Name = nullptr;
  const char *Description = nullptr;
  uint64_t Value = 0;
};

/// Every registered counter, sorted by name for deterministic output.
using CounterSnapshot = std::vector<CounterValue>;

/// Writes \p Snapshot as one JSON object {"name": value, ...} into \p W
/// (the writer must be positioned where a value is expected).
void writeCountersJson(JsonWriter &W, const CounterSnapshot &Snapshot);

/// RAII per-run counter attribution. While alive, every Counter increment
/// made *on the constructing thread* is credited to this scope; take()
/// renders the credits as a full name-sorted table (zero entries
/// retained). Scopes nest — an inner scope's increments credit every
/// enclosing scope on the same thread — and increments from other threads
/// are never visible, which is what gives concurrent Cogent::generate
/// calls exact per-run attribution.
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

//===- support/Counters.cpp ----------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Counters.h"

#include "support/JsonWriter.h"
#include "support/Metrics.h"

#include <algorithm>
#include <cstring>

using namespace cogent;
using namespace cogent::support;

namespace {

/// Head of the process-wide registry. Lock-free push-front: counters are
/// only ever added (static storage duration), never removed.
std::atomic<Counter *> &registryHead() {
  static std::atomic<Counter *> Head{nullptr};
  return Head;
}

} // namespace

Counter::Counter(const char *Name, const char *Description)
    : Name(Name), Description(Description) {
  std::atomic<Counter *> &Head = registryHead();
  Counter *Expected = Head.load(std::memory_order_relaxed);
  do {
    Next = Expected;
  } while (!Head.compare_exchange_weak(Expected, this,
                                       std::memory_order_release,
                                       std::memory_order_relaxed));
}

CounterSnapshot cogent::support::snapshotCounters() {
  CounterSnapshot Snapshot;
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->Next)
    Snapshot.push_back({C->name(), C->description(), C->value()});
  std::sort(Snapshot.begin(), Snapshot.end(),
            [](const CounterValue &X, const CounterValue &Y) {
              return std::strcmp(X.Name, Y.Name) < 0;
            });
  return Snapshot;
}

constinit thread_local CounterScope
    *cogent::support::counters_detail::ActiveScope = nullptr;

void cogent::support::counters_detail::recordScoped(const Counter *C,
                                                    uint64_t N) {
  for (CounterScope *Scope = ActiveScope; Scope; Scope = Scope->Parent)
    Scope->Deltas[C] += N;
}

CounterScope::CounterScope() : Parent(counters_detail::ActiveScope) {
  counters_detail::ActiveScope = this;
}

CounterScope::~CounterScope() { counters_detail::ActiveScope = Parent; }

CounterSnapshot CounterScope::take() const {
  CounterSnapshot Snapshot;
  for (Counter *C = registryHead().load(std::memory_order_acquire); C;
       C = C->Next) {
    auto It = Deltas.find(C);
    Snapshot.push_back(
        {C->name(), C->description(), It == Deltas.end() ? 0 : It->second});
  }
  std::sort(Snapshot.begin(), Snapshot.end(),
            [](const CounterValue &X, const CounterValue &Y) {
              return std::strcmp(X.Name, Y.Name) < 0;
            });
  return Snapshot;
}

void cogent::support::writeCountersJson(JsonWriter &W,
                                        const CounterSnapshot &Snapshot) {
  W.beginObject();
  for (const CounterValue &Entry : Snapshot)
    W.member(Entry.Name, Entry.Value);
  W.endObject();
}

void cogent::support::bridgeProcessCounters(MetricRegistry &Registry) {
  // bridgeTo only ratchets upward, so repeated bridging of the monotonic
  // process table is idempotent per value and safe from any thread.
  for (const CounterValue &Entry : snapshotCounters())
    Registry.counter(std::string("process.") + Entry.Name, Entry.Description)
        .bridgeTo(Entry.Value);
}

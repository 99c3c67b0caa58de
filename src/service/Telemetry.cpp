//===- service/Telemetry.cpp ----------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "service/Telemetry.h"

#include "support/JsonWriter.h"
#include "support/Trace.h"

using namespace cogent;
using namespace cogent::service;

namespace {

constexpr const char *BreakerStateNames[NumBreakerStates] = {
    "closed",
    "open",
    "half-open",
};

constexpr const char *RequestEventKindNames[NumRequestEventKinds] = {
    "submitted",
    "shed",
    "dequeued",
    "deadline-band",
    "breaker-transition",
    "attempt-start",
    "attempt-failed",
    "backoff",
    "cache-hit",
    "cache-quarantine",
    "coalesced",
    "completed",
    "failed",
};

/// traceInstant keeps only the pointer, so instants need names with static
/// storage duration — one pre-composed "service.<kind>" per event kind.
constexpr const char *RequestEventTraceNames[NumRequestEventKinds] = {
    "service.submitted",
    "service.shed",
    "service.dequeued",
    "service.deadline-band",
    "service.breaker-transition",
    "service.attempt-start",
    "service.attempt-failed",
    "service.backoff",
    "service.cache-hit",
    "service.cache-quarantine",
    "service.coalesced",
    "service.completed",
    "service.failed",
};

} // namespace

const char *cogent::service::breakerStateName(BreakerState S) {
  unsigned I = static_cast<unsigned>(S);
  return I < NumBreakerStates ? BreakerStateNames[I] : "unknown";
}

std::optional<BreakerState>
cogent::service::breakerStateFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumBreakerStates; ++I)
    if (Name == BreakerStateNames[I])
      return static_cast<BreakerState>(I);
  return std::nullopt;
}

const char *cogent::service::requestEventKindName(RequestEventKind Kind) {
  unsigned I = static_cast<unsigned>(Kind);
  return I < NumRequestEventKinds ? RequestEventKindNames[I] : "unknown";
}

std::optional<RequestEventKind>
cogent::service::requestEventKindFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumRequestEventKinds; ++I)
    if (Name == RequestEventKindNames[I])
      return static_cast<RequestEventKind>(I);
  return std::nullopt;
}

bool cogent::service::isTerminalEvent(RequestEventKind Kind) {
  return Kind == RequestEventKind::Shed ||
         Kind == RequestEventKind::Completed ||
         Kind == RequestEventKind::Failed;
}

std::string RequestEvent::toJson() const {
  support::JsonWriter W;
  W.beginObject();
  W.member("request", RequestId);
  W.member("event", requestEventKindName(Kind));
  W.member("at_ms", AtMs);
  W.member("detail", Detail);
  W.endObject();
  return W.take();
}

ServiceTelemetry::ServiceTelemetry(TelemetryOptions Options)
    : Options(std::move(Options)), Epoch(std::chrono::steady_clock::now()),
      Recorded(Registry.counter("telemetry.events-recorded")),
      Dropped(Registry.counter("telemetry.events-dropped")) {
  if (this->Options.EventCapacity == 0)
    this->Options.EventCapacity = 1;
  if (!this->Options.EventLogJsonlPath.empty())
    JsonlSink = std::fopen(this->Options.EventLogJsonlPath.c_str(), "w");
}

ServiceTelemetry::~ServiceTelemetry() {
  if (JsonlSink)
    std::fclose(JsonlSink);
}

uint64_t ServiceTelemetry::beginRequest() {
  return NextRequestId.fetch_add(1, std::memory_order_relaxed) + 1;
}

double ServiceTelemetry::nowMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Epoch)
      .count();
}

void ServiceTelemetry::recordEvent(uint64_t RequestId, RequestEventKind Kind,
                                   std::string Detail) {
  RequestEvent Event;
  Event.RequestId = RequestId;
  Event.Kind = Kind;
  Event.AtMs = nowMs();
  Event.Detail = std::move(Detail);

  support::traceInstant(
      RequestEventTraceNames[static_cast<unsigned>(Kind) %
                             NumRequestEventKinds],
      {{"request", std::to_string(RequestId)}, {"detail", Event.Detail}});

  std::lock_guard<std::mutex> Guard(EventsLock);
  if (JsonlSink) {
    std::string Line = Event.toJson();
    Line += '\n';
    if (std::fwrite(Line.data(), 1, Line.size(), JsonlSink) != Line.size()) {
      // A failing sink (disk full, closed pipe) must not take the service
      // down or stall the workers: drop the file and keep going.
      std::fclose(JsonlSink);
      JsonlSink = nullptr;
    } else {
      std::fflush(JsonlSink);
    }
  }
  Recorded.add();
  Events.push_back(std::move(Event));
  while (Events.size() > Options.EventCapacity) {
    Events.pop_front();
    Dropped.add();
  }
}

std::vector<RequestEvent> ServiceTelemetry::events() const {
  std::lock_guard<std::mutex> Guard(EventsLock);
  return std::vector<RequestEvent>(Events.begin(), Events.end());
}

uint64_t ServiceTelemetry::eventsRecorded() const { return Recorded.value(); }

uint64_t ServiceTelemetry::eventsDropped() const { return Dropped.value(); }

//===- service/Telemetry.cpp ----------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "service/Telemetry.h"

using namespace cogent;
using namespace cogent::service;

namespace {

constexpr const char *BreakerStateNames[NumBreakerStates] = {
    "closed",
    "open",
    "half-open",
};

/// traceInstant keeps only the pointer, so instant names need static
/// storage duration; the kebab-case kind names are their suffixes.
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

constexpr size_t TracePrefixLength = sizeof("service.") - 1;

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

const char *cogent::service::requestEventTraceName(RequestEventKind Kind) {
  unsigned I = static_cast<unsigned>(Kind);
  return I < NumRequestEventKinds ? RequestEventTraceNames[I]
                                  : "service.unknown";
}

const char *cogent::service::requestEventKindName(RequestEventKind Kind) {
  return requestEventTraceName(Kind) + TracePrefixLength;
}

std::optional<RequestEventKind>
cogent::service::requestEventKindFromName(const std::string &Name) {
  for (unsigned I = 0; I < NumRequestEventKinds; ++I)
    if (Name == RequestEventTraceNames[I] + TracePrefixLength)
      return static_cast<RequestEventKind>(I);
  return std::nullopt;
}

bool cogent::service::isTerminalEvent(RequestEventKind Kind) {
  return Kind == RequestEventKind::Shed ||
         Kind == RequestEventKind::Completed ||
         Kind == RequestEventKind::Failed;
}

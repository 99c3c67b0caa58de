//===- support/Trace.cpp -------------------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/Trace.h"

#include "support/JsonWriter.h"

#include <atomic>
#include <cstdio>

using namespace cogent;
using namespace cogent::support;

namespace {

std::atomic<TraceSession *> &activeSessionSlot() {
  static std::atomic<TraceSession *> Slot{nullptr};
  return Slot;
}

} // namespace

uint32_t cogent::support::traceThreadId() {
  static std::atomic<uint32_t> NextId{0};
  thread_local uint32_t Id = NextId.fetch_add(1, std::memory_order_relaxed);
  return Id;
}

TraceSession *cogent::support::activeTraceSession() {
  return activeSessionSlot().load(std::memory_order_acquire);
}

TraceSession::TraceSession() : Epoch(std::chrono::steady_clock::now()) {}

TraceSession::~TraceSession() {
  TraceSession *Self = this;
  activeSessionSlot().compare_exchange_strong(Self, nullptr,
                                              std::memory_order_acq_rel);
}

double TraceSession::sinceEpochUs(
    std::chrono::steady_clock::time_point Time) const {
  return std::chrono::duration<double, std::micro>(Time - Epoch).count();
}

void TraceSession::record(TraceEvent Event) {
  std::lock_guard<std::mutex> Lock(Mutex);
  Events.push_back(std::move(Event));
}

size_t TraceSession::eventCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events.size();
}

std::vector<TraceEvent> TraceSession::events() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Events;
}

std::string TraceSession::toChromeTraceJson() const {
  std::vector<TraceEvent> Snapshot = events();
  JsonWriter W;
  W.beginObject();
  W.key("traceEvents");
  W.beginArray();
  for (const TraceEvent &Event : Snapshot) {
    W.beginObject();
    W.member("name", Event.Name);
    W.member("cat", "cogent");
    W.member("ph", std::string(1, Event.Phase));
    W.member("ts", Event.TimestampUs);
    if (Event.Phase == 'X')
      W.member("dur", Event.DurationUs);
    else
      W.member("s", "t"); // instant scope: thread
    W.member("pid", uint64_t(1));
    W.member("tid", uint64_t(Event.ThreadId));
    if (!Event.Args.empty()) {
      W.key("args");
      W.beginObject();
      for (const auto &[Key, Value] : Event.Args)
        W.member(Key, Value);
      W.endObject();
    }
    W.endObject();
  }
  W.endArray();
  W.member("displayTimeUnit", "ms");
  W.endObject();
  return W.take();
}

bool TraceSession::writeChromeTrace(const std::string &Path) const {
  std::string Json = toChromeTraceJson();
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return false;
  size_t Written = std::fwrite(Json.data(), 1, Json.size(), File);
  bool Ok = Written == Json.size();
  Ok &= std::fclose(File) == 0;
  return Ok;
}

ScopedTraceActivation::ScopedTraceActivation(TraceSession *Session) {
  if (!Session)
    return;
  Previous = activeSessionSlot().exchange(Session, std::memory_order_acq_rel);
  Installed = true;
}

ScopedTraceActivation::~ScopedTraceActivation() {
  if (Installed)
    activeSessionSlot().store(Previous, std::memory_order_release);
}

TraceSpan::TraceSpan(const char *Name)
    : Session(activeTraceSession()), Name(Name),
      Start(std::chrono::steady_clock::now()) {}

double TraceSpan::elapsedMs() const {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

TraceSpan::~TraceSpan() {
  if (!Session)
    return;
  TraceEvent Event;
  Event.Name = Name;
  Event.Phase = 'X';
  Event.ThreadId = traceThreadId();
  // One clock read: the start comes from Start itself, so an enclosing
  // span's recorded start can never land after a nested span's.
  Event.TimestampUs = Session->sinceEpochUs(Start);
  Event.DurationUs = std::chrono::duration<double, std::micro>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
  Event.Args = std::move(Args);
  Session->record(std::move(Event));
}

void cogent::support::traceInstant(
    const char *Name, std::vector<std::pair<std::string, std::string>> Args) {
  TraceSession *Session = activeTraceSession();
  if (!Session)
    return;
  TraceEvent Event;
  Event.Name = Name;
  Event.Phase = 'i';
  Event.ThreadId = traceThreadId();
  Event.TimestampUs = Session->nowUs();
  Event.Args = std::move(Args);
  Session->record(std::move(Event));
}

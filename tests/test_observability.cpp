//===- tests/test_observability.cpp - Trace/counter/JSON layer tests -------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the support/ observability layer and its integration with the
/// pipeline: JsonWriter emits valid RFC 8259 text, spans recorded by
/// concurrent threads nest correctly per thread id, the Chrome-trace and
/// metrics JSON artifacts validate with the library's own checker, counter
/// deltas attributed to a generate() run are deterministic and agree with
/// EnumerationStats exactly, and tracing stays fully off when not
/// requested.
///
//===----------------------------------------------------------------------===//

#include "core/Cogent.h"
#include "support/Counters.h"
#include "support/JsonValue.h"
#include "support/JsonWriter.h"
#include "support/Trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace cogent;
using support::CounterSnapshot;
using support::CounterValue;
using support::JsonWriter;
using support::TraceEvent;
using support::TraceSession;
using support::TraceSpan;

namespace {

//===----------------------------------------------------------------------===//
// JsonWriter
//===----------------------------------------------------------------------===//

TEST(JsonWriter, EmitsValidNestedDocument) {
  JsonWriter W;
  W.beginObject();
  W.member("name", "a\"b\\c\n\t\x01");
  W.member("count", static_cast<uint64_t>(42));
  W.member("ratio", 0.25);
  W.member("flag", true);
  W.key("nothing");
  W.null();
  W.key("list");
  W.beginArray();
  W.value(1);
  W.beginObject();
  W.member("inner", -7);
  W.endObject();
  W.endArray();
  W.endObject();

  std::string Text = W.take();
  std::string Err;
  EXPECT_TRUE(support::validateJson(Text, &Err)) << Err << "\n" << Text;
  // Control characters must be escaped, never emitted raw.
  EXPECT_EQ(Text.find('\n'), std::string::npos);
  EXPECT_NE(Text.find("\\u0001"), std::string::npos);
  EXPECT_NE(Text.find("\\\"b\\\\c"), std::string::npos);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  JsonWriter W;
  W.beginObject();
  W.member("inf", std::numeric_limits<double>::infinity());
  W.member("nan", std::numeric_limits<double>::quiet_NaN());
  W.endObject();
  std::string Text = W.take();
  EXPECT_TRUE(support::validateJson(Text));
  EXPECT_EQ(Text, "{\"inf\":null,\"nan\":null}");
}

TEST(JsonValidate, RejectsMalformedDocuments) {
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\":}", "{\"a\":1,}", "tru", "\"unterminated",
        "[1] trailing", "{\"a\" 1}", "01", "+1", "\"\\x\"",
        "{\"a\":1,\"a\":2}"}) {
    std::string Err;
    EXPECT_FALSE(support::validateJson(Bad, &Err)) << Bad;
    EXPECT_FALSE(Err.empty()) << Bad;
  }
  for (const char *Good :
       {"null", "true", "-1.5e3", "\"\"", "[]", "{}", "  [1, 2, 3]  ",
        "{\"a\":{\"b\":[null,false]}}", "\"\\u00e9\\n\""}) {
    EXPECT_TRUE(support::validateJson(Good)) << Good;
  }
}

TEST(JsonValidate, ReportsLineAndColumnOfFirstError) {
  // json_lint's file:line:col diagnostics come straight from this helper;
  // both coordinates are 1-based and point at the offending character.
  struct Case {
    const char *Text;
    size_t Line, Column;
  };
  for (const Case &C : {
           Case{"{\"a\":}", 1, 6},          // value missing after the colon
           Case{"{\n  \"a\": 1,\n}", 3, 1}, // trailing comma before the brace
           Case{"[1,\n 2,\n tru]", 3, 5},   // bad literal on line 3
           Case{"{}x", 1, 3},               // trailing garbage
       }) {
    std::string Err;
    size_t Line = 0, Column = 0;
    EXPECT_FALSE(support::validateJsonAt(C.Text, &Err, &Line, &Column))
        << C.Text;
    EXPECT_FALSE(Err.empty()) << C.Text;
    EXPECT_EQ(Line, C.Line) << C.Text;
    EXPECT_EQ(Column, C.Column) << C.Text;
  }

  size_t Line = 7, Column = 7;
  std::string Err;
  EXPECT_TRUE(support::validateJsonAt("{\"a\":1}", &Err, &Line, &Column));
}

//===----------------------------------------------------------------------===//
// Trace sessions and spans
//===----------------------------------------------------------------------===//

/// True when [InnerStart, InnerEnd] lies within [OuterStart, OuterEnd].
bool contains(const TraceEvent &Outer, const TraceEvent &Inner) {
  return Inner.TimestampUs >= Outer.TimestampUs &&
         Inner.TimestampUs + Inner.DurationUs <=
             Outer.TimestampUs + Outer.DurationUs;
}

TEST(Trace, ConcurrentSpansNestPerThread) {
  TraceSession Session;
  support::ScopedTraceActivation Activation(&Session);

  constexpr int NumThreads = 4;
  constexpr int NumIterations = 8;
  std::vector<std::thread> Threads;
  for (int T = 0; T < NumThreads; ++T)
    Threads.emplace_back([&]() {
      for (int I = 0; I < NumIterations; ++I) {
        TraceSpan Outer("test.outer");
        {
          TraceSpan Inner("test.inner");
          ASSERT_TRUE(Inner.live());
        }
      }
    });
  for (std::thread &Thread : Threads)
    Thread.join();

  std::vector<TraceEvent> Events = Session.events();
  EXPECT_EQ(Events.size(),
            static_cast<size_t>(NumThreads * NumIterations * 2));

  // Group by thread id: each thread must have produced its own pairs, and
  // within a thread every inner span must be contained in exactly one
  // outer span (spans on one thread are strictly nested).
  std::map<uint32_t, std::vector<TraceEvent>> ByThread;
  for (const TraceEvent &Event : Events) {
    EXPECT_EQ(Event.Phase, 'X');
    EXPECT_GE(Event.DurationUs, 0.0);
    ByThread[Event.ThreadId].push_back(Event);
  }
  EXPECT_EQ(ByThread.size(), static_cast<size_t>(NumThreads));
  for (const auto &[Tid, Thread] : ByThread) {
    std::vector<TraceEvent> Outers, Inners;
    for (const TraceEvent &Event : Thread)
      (std::string(Event.Name) == "test.outer" ? Outers : Inners)
          .push_back(Event);
    ASSERT_EQ(Outers.size(), static_cast<size_t>(NumIterations)) << Tid;
    ASSERT_EQ(Inners.size(), static_cast<size_t>(NumIterations)) << Tid;
    for (const TraceEvent &Inner : Inners) {
      int Containers = 0;
      for (const TraceEvent &Outer : Outers)
        Containers += contains(Outer, Inner);
      EXPECT_EQ(Containers, 1) << "thread " << Tid;
    }
  }
}

TEST(Trace, ChromeTraceJsonValidatesAndCoversPipelinePhases) {
  TraceSession Session;
  core::Cogent Generator(gpu::makeV100());
  core::CogentOptions Options;
  Options.Trace = &Session;
  ErrorOr<core::GenerationResult> Result =
      Generator.generate("ab-ac-cb", {{'a', 64}, {'b', 64}, {'c', 64}},
                         Options);
  ASSERT_TRUE(Result.hasValue());

  std::string Json = Session.toChromeTraceJson();
  std::string Err;
  EXPECT_TRUE(support::validateJson(Json, &Err)) << Err;
  for (const char *Span : {"cogent.parse", "cogent.generate",
                           "cogent.enumerate", "cogent.rank", "cogent.emit"})
    EXPECT_NE(Json.find(std::string("\"name\":\"") + Span + "\""),
              std::string::npos)
        << Span;

  // Phase spans must be contained in the cogent.generate span.
  std::vector<TraceEvent> Events = Session.events();
  auto Generate =
      std::find_if(Events.begin(), Events.end(), [](const TraceEvent &E) {
        return std::string(E.Name) == "cogent.generate";
      });
  ASSERT_NE(Generate, Events.end());
  for (const TraceEvent &Event : Events)
    if (Event.Phase == 'X' && Event.ThreadId == Generate->ThreadId &&
        (std::string(Event.Name) == "cogent.enumerate" ||
         std::string(Event.Name) == "cogent.rank" ||
         std::string(Event.Name) == "cogent.emit")) {
      EXPECT_TRUE(contains(*Generate, Event)) << Event.Name;
    }

  // And the recorded phase timings are populated.
  EXPECT_GT(Result->Phases.ParseMs, 0.0);
  EXPECT_GT(Result->Phases.EnumerateMs, 0.0);
  EXPECT_GT(Result->Phases.RankMs, 0.0);
  EXPECT_GT(Result->Phases.EmitMs, 0.0);
}

TEST(Trace, DisabledTracingRecordsNothing) {
  ASSERT_EQ(support::activeTraceSession(), nullptr)
      << "a previous test leaked an active session";

  {
    TraceSpan Span("test.unrecorded");
    EXPECT_FALSE(Span.live());
    Span.arg("key", "value");
    EXPECT_GE(Span.elapsedMs(), 0.0); // still usable for timings
  }
  support::traceInstant("test.unrecorded-instant");

  // A session that exists but was never activated sees nothing from a
  // full pipeline run either.
  TraceSession Bystander;
  core::Cogent Generator(gpu::makeV100());
  ErrorOr<core::GenerationResult> Result =
      Generator.generate("ab-ac-cb", {{'a', 32}, {'b', 32}, {'c', 32}}, {});
  ASSERT_TRUE(Result.hasValue());
  EXPECT_EQ(Bystander.eventCount(), 0u);
  EXPECT_EQ(support::activeTraceSession(), nullptr);
}

TEST(Trace, NullActivationKeepsOuterSessionActive) {
  TraceSession Outer;
  support::ScopedTraceActivation Activate(&Outer);
  {
    support::ScopedTraceActivation Noop(nullptr);
    EXPECT_EQ(support::activeTraceSession(), &Outer);
    TraceSpan Span("test.outer-visible");
    EXPECT_TRUE(Span.live());
  }
  EXPECT_EQ(support::activeTraceSession(), &Outer);
  EXPECT_EQ(Outer.eventCount(), 1u);
}

//===----------------------------------------------------------------------===//
// Counters
//===----------------------------------------------------------------------===//

uint64_t counterValue(const CounterSnapshot &Snapshot, const char *Name) {
  for (const CounterValue &Value : Snapshot)
    if (std::string(Value.Name) == Name)
      return Value.Value;
  ADD_FAILURE() << "counter '" << Name << "' not found";
  return 0;
}

TEST(Counters, DeltaMatchesEnumerationStatsExactly) {
  core::Cogent Generator(gpu::makeV100());
  ir::Contraction TC = *ir::Contraction::parseUniform("abc-adc-bd", 48);
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC, {});
  ASSERT_TRUE(Result.hasValue());

  const core::EnumerationStats &Stats = Result->Stats;
  const CounterSnapshot &Delta = Result->Counters;
  EXPECT_EQ(counterValue(Delta, "enumerator.raw-configs"),
            Stats.RawConfigs);
  EXPECT_EQ(counterValue(Delta, "enumerator.examined"), Stats.Examined);
  EXPECT_EQ(counterValue(Delta, "enumerator.invalid"),
            Stats.InvalidConfigs);
  EXPECT_EQ(counterValue(Delta, "enumerator.hardware-pruned"),
            Stats.HardwarePruned);
  EXPECT_EQ(counterValue(Delta, "enumerator.performance-pruned"),
            Stats.PerformancePruned);
  EXPECT_EQ(counterValue(Delta, "enumerator.survivors"), Stats.Survivors);
  EXPECT_EQ(counterValue(Delta, "cogent.generate-runs"), 1u);
  EXPECT_GE(counterValue(Delta, "costmodel.evaluations"), Stats.Survivors);
  EXPECT_GT(counterValue(Delta, "codegen.bytes-emitted"), 0u);
}

TEST(Counters, DeltaIsDeterministicAcrossIdenticalRuns) {
  core::Cogent Generator(gpu::makeV100());
  ir::Contraction TC = *ir::Contraction::parseUniform("abcd-aebf-dfce", 24);
  ErrorOr<core::GenerationResult> First = Generator.generate(TC, {});
  ErrorOr<core::GenerationResult> Second = Generator.generate(TC, {});
  ASSERT_TRUE(First.hasValue());
  ASSERT_TRUE(Second.hasValue());

  // Same names in the same (sorted) order, same per-run deltas — the
  // process-wide totals differ, the attribution must not.
  ASSERT_EQ(First->Counters.size(), Second->Counters.size());
  for (size_t I = 0; I < First->Counters.size(); ++I) {
    EXPECT_STREQ(First->Counters[I].Name, Second->Counters[I].Name);
    EXPECT_EQ(First->Counters[I].Value, Second->Counters[I].Value)
        << First->Counters[I].Name;
  }
}

TEST(Counters, ConcurrentRunsDoNotBleedIntoEachOthersDelta) {
  // Regression: the old snapshot-diff attribution charged one run with
  // every increment any *other* thread made while it was in flight. The
  // per-thread CounterScope must give each concurrent generate() exactly
  // its own work — most crisply, exactly one generate-run each.
  constexpr int NumThreads = 4;
  std::vector<ErrorOr<core::GenerationResult>> Results;
  for (int I = 0; I < NumThreads; ++I)
    Results.push_back(Error("not run"));

  std::vector<std::thread> Threads;
  for (int I = 0; I < NumThreads; ++I)
    Threads.emplace_back([I, &Results] {
      core::Cogent Generator(gpu::makeV100());
      ir::Contraction TC =
          *ir::Contraction::parseUniform("abcd-aebf-dfce", 24);
      Results[I] = Generator.generate(TC, {});
    });
  for (std::thread &T : Threads)
    T.join();

  for (int I = 0; I < NumThreads; ++I) {
    ASSERT_TRUE(Results[I].hasValue()) << "thread " << I;
    EXPECT_EQ(counterValue(Results[I]->Counters, "cogent.generate-runs"), 1u)
        << "thread " << I;
    // Identical inputs on every thread: the whole attributed delta must be
    // identical too, concurrency notwithstanding.
    if (I > 0) {
      ASSERT_EQ(Results[I]->Counters.size(), Results[0]->Counters.size());
      for (size_t J = 0; J < Results[I]->Counters.size(); ++J)
        EXPECT_EQ(Results[I]->Counters[J].Value,
                  Results[0]->Counters[J].Value)
            << Results[I]->Counters[J].Name;
    }
  }
}

TEST(Counters, SnapshotIsSortedAndDescribed) {
  CounterSnapshot Snapshot = support::CounterScope().take();
  ASSERT_FALSE(Snapshot.empty());
  for (size_t I = 0; I < Snapshot.size(); ++I) {
    ASSERT_NE(Snapshot[I].Name, nullptr);
    ASSERT_NE(Snapshot[I].Description, nullptr);
    EXPECT_GT(std::string(Snapshot[I].Description).size(), 0u)
        << Snapshot[I].Name;
    if (I > 0) {
      EXPECT_LT(std::string(Snapshot[I - 1].Name),
                std::string(Snapshot[I].Name));
    }
  }
}

//===----------------------------------------------------------------------===//
// Metrics JSON
//===----------------------------------------------------------------------===//

TEST(Metrics, RenderedJsonValidatesAndEchoesStats) {
  gpu::DeviceSpec Device = gpu::makeV100();
  core::Cogent Generator(Device);
  ir::Contraction TC = *ir::Contraction::parseUniform("ab-ac-cb", 96);
  ErrorOr<core::GenerationResult> Result = Generator.generate(TC, {});
  ASSERT_TRUE(Result.hasValue());

  std::string Json = core::renderMetricsJson(TC, *Result, Device);
  std::string Err;
  EXPECT_TRUE(support::validateJson(Json, &Err)) << Err;
  EXPECT_NE(Json.find("\"contraction\":\"ab-ac-cb\""), std::string::npos);
  EXPECT_NE(Json.find("\"device\":\"V100\""), std::string::npos);
  EXPECT_NE(Json.find("\"survivors\":" +
                      std::to_string(Result->Stats.Survivors)),
            std::string::npos);
  EXPECT_NE(Json.find("\"enumerator.examined\":" +
                      std::to_string(Result->Stats.Examined)),
            std::string::npos);
  EXPECT_NE(Json.find("\"fallback\":\"none\""), std::string::npos);
}

} // namespace

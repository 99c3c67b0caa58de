//===- support/JsonWriter.h - Dependency-free JSON emission ---------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A minimal streaming JSON writer shared by the tracing sink, the
/// counter/metrics exporter, the CLI and the bench harness reporters.
/// Header-only and dependency-free on purpose: the observability layer
/// must never pull a third-party serializer into the core libraries.
///
/// The writer inserts commas automatically and escapes strings per RFC
/// 8259. Non-finite doubles (which JSON cannot represent) are emitted as
/// null. The reading half — parseJson and the validateJson checks built on
/// it — lives in support/JsonValue.h.
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_JSONWRITER_H
#define COGENT_SUPPORT_JSONWRITER_H

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace cogent {
namespace support {

/// Streaming JSON writer over an owned string buffer.
///
///   JsonWriter W;
///   W.beginObject();
///   W.key("name"); W.value("eq1");
///   W.key("gflops"); W.value(1234.5);
///   W.endObject();
///   std::string Out = W.take();
class JsonWriter {
public:
  JsonWriter() { Buffer.reserve(256); }

  void beginObject() { beginValue(); Buffer += '{'; push(/*IsObject=*/true); }
  void endObject() { pop(); Buffer += '}'; }
  void beginArray() { beginValue(); Buffer += '['; push(/*IsObject=*/false); }
  void endArray() { pop(); Buffer += ']'; }

  /// Emits an object key. Must alternate with exactly one value inside an
  /// object scope.
  void key(const std::string &Name) {
    separate();
    appendEscaped(Name);
    Buffer += ':';
    PendingKey = true;
  }

  void value(const std::string &S) { beginValue(); appendEscaped(S); }
  void value(const char *S) { value(std::string(S)); }
  void value(bool B) { beginValue(); Buffer += B ? "true" : "false"; }
  void value(double D) {
    beginValue();
    if (!std::isfinite(D)) {
      Buffer += "null"; // JSON has no NaN/Inf
      return;
    }
    char Tmp[32];
    std::snprintf(Tmp, sizeof(Tmp), "%.17g", D);
    Buffer += Tmp;
  }
  void value(uint64_t U) {
    beginValue();
    Buffer += std::to_string(U);
  }
  void value(int64_t I) { beginValue(); Buffer += std::to_string(I); }
  void value(int I) { value(static_cast<int64_t>(I)); }
  void value(unsigned U) { value(static_cast<uint64_t>(U)); }
  void null() { beginValue(); Buffer += "null"; }

  /// Convenience: key + value in one call.
  template <typename T> void member(const std::string &Name, T &&V) {
    key(Name);
    value(std::forward<T>(V));
  }

  const std::string &str() const { return Buffer; }
  std::string take() { return std::move(Buffer); }

private:
  struct Scope {
    bool IsObject = false;
    bool HasEntries = false;
  };

  void push(bool IsObject) { Scopes.push_back({IsObject, false}); }
  void pop() {
    if (!Scopes.empty())
      Scopes.pop_back();
  }
  /// Emits the separating comma when a sibling entry precedes this one.
  void separate() {
    if (!Scopes.empty()) {
      if (Scopes.back().HasEntries)
        Buffer += ',';
      Scopes.back().HasEntries = true;
    }
  }
  /// Called before every value: array elements need their own comma, object
  /// values had it emitted by key().
  void beginValue() {
    if (PendingKey)
      PendingKey = false;
    else
      separate();
  }

  void appendEscaped(const std::string &S) {
    Buffer += '"';
    for (char C : S) {
      switch (C) {
      case '"': Buffer += "\\\""; break;
      case '\\': Buffer += "\\\\"; break;
      case '\n': Buffer += "\\n"; break;
      case '\r': Buffer += "\\r"; break;
      case '\t': Buffer += "\\t"; break;
      default:
        if (static_cast<unsigned char>(C) < 0x20) {
          char Tmp[8];
          std::snprintf(Tmp, sizeof(Tmp), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(C)));
          Buffer += Tmp;
        } else {
          Buffer += C;
        }
      }
    }
    Buffer += '"';
  }

  std::string Buffer;
  std::vector<Scope> Scopes;
  bool PendingKey = false;
};

} // namespace support
} // namespace cogent

#endif // COGENT_SUPPORT_JSONWRITER_H

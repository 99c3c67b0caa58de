//===- support/JsonValue.h - Minimal JSON DOM parser ----------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The reading half of the dependency-free JSON layer (JsonWriter.h
/// emits): one recursive-descent parser that builds a small DOM so tools
/// can inspect values — bench_compare reads throughput/latency fields out
/// of BENCH_service.json, tests read exporter snapshots back — and that
/// also backs validateJson, the well-formedness check json_lint, the tests
/// and the bench reporters run. Accepts exactly the RFC 8259 grammar with
/// at most 256-deep nesting; numbers are doubles, objects preserve
/// insertion order and reject duplicate keys (none of our emitters produce
/// them, and catching one here catches an emitter bug).
///
//===----------------------------------------------------------------------===//

#ifndef COGENT_SUPPORT_JSONVALUE_H
#define COGENT_SUPPORT_JSONVALUE_H

#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace cogent {
namespace support {

/// One parsed JSON value. A small tagged union; arrays/objects own their
/// children. Copyable (deep copy) — the trees we parse are tiny reports.
class JsonValue {
public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  JsonValue() : K(Kind::Null) {}
  static JsonValue makeBool(bool B);
  static JsonValue makeNumber(double D);
  static JsonValue makeString(std::string S);
  static JsonValue makeArray();
  static JsonValue makeObject();

  Kind kind() const { return K; }
  bool isNull() const { return K == Kind::Null; }
  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// \pre matching kind (asserted).
  bool asBool() const;
  double asNumber() const;
  const std::string &asString() const;
  const std::vector<JsonValue> &asArray() const;
  std::vector<JsonValue> &asArray();
  const std::vector<std::pair<std::string, JsonValue>> &asObject() const;
  std::vector<std::pair<std::string, JsonValue>> &asObject();

  /// Member lookup on an object; nullptr when absent or not an object.
  const JsonValue *find(const std::string &Key) const;

  /// find() + number access: nullopt when absent or not a number.
  std::optional<double> findNumber(const std::string &Key) const;

private:
  Kind K;
  bool B = false;
  double D = 0.0;
  std::string S;
  std::vector<JsonValue> Arr;
  std::vector<std::pair<std::string, JsonValue>> Obj;
};

/// Parses \p Text as one RFC 8259 JSON value. Errors (including duplicate
/// object keys and trailing garbage) come back as ErrorCode::InvalidSpec
/// with a byte-offset message.
ErrorOr<JsonValue> parseJson(const std::string &Text);

/// Returns true when parseJson accepts \p Text; on failure \p Err (when
/// non-null) receives its one-line reason with the byte offset.
bool validateJson(const std::string &Text, std::string *Err = nullptr);

/// Like validateJson, but also reports where the first error was found:
/// \p ErrLine / \p ErrColumn (when non-null) receive the 1-based position
/// of the byte the parser stopped at. Tools print "file:line:col".
bool validateJsonAt(const std::string &Text, std::string *Err,
                    size_t *ErrLine, size_t *ErrColumn);

} // namespace support
} // namespace cogent

#endif // COGENT_SUPPORT_JSONVALUE_H

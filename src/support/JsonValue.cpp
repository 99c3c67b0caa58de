//===- support/JsonValue.cpp ----------------------------------------------===//
//
// Part of the COGENT reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//

#include "support/JsonValue.h"

#include <cassert>
#include <cctype>
#include <cstdlib>

using namespace cogent;
using namespace cogent::support;

JsonValue JsonValue::makeBool(bool B) {
  JsonValue V;
  V.K = Kind::Bool;
  V.B = B;
  return V;
}

JsonValue JsonValue::makeNumber(double D) {
  JsonValue V;
  V.K = Kind::Number;
  V.D = D;
  return V;
}

JsonValue JsonValue::makeString(std::string S) {
  JsonValue V;
  V.K = Kind::String;
  V.S = std::move(S);
  return V;
}

JsonValue JsonValue::makeArray() {
  JsonValue V;
  V.K = Kind::Array;
  return V;
}

JsonValue JsonValue::makeObject() {
  JsonValue V;
  V.K = Kind::Object;
  return V;
}

bool JsonValue::asBool() const {
  assert(isBool() && "not a bool");
  return B;
}

double JsonValue::asNumber() const {
  assert(isNumber() && "not a number");
  return D;
}

const std::string &JsonValue::asString() const {
  assert(isString() && "not a string");
  return S;
}

const std::vector<JsonValue> &JsonValue::asArray() const {
  assert(isArray() && "not an array");
  return Arr;
}

std::vector<JsonValue> &JsonValue::asArray() {
  assert(isArray() && "not an array");
  return Arr;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject() const {
  assert(isObject() && "not an object");
  return Obj;
}

std::vector<std::pair<std::string, JsonValue>> &JsonValue::asObject() {
  assert(isObject() && "not an object");
  return Obj;
}

const JsonValue *JsonValue::find(const std::string &Key) const {
  if (!isObject())
    return nullptr;
  for (const auto &[Name, Value] : Obj)
    if (Name == Key)
      return &Value;
  return nullptr;
}

std::optional<double> JsonValue::findNumber(const std::string &Key) const {
  const JsonValue *V = find(Key);
  if (!V || !V->isNumber())
    return std::nullopt;
  return V->asNumber();
}

namespace {

/// Recursive-descent RFC 8259 parser over [P, End). On failure, errorOffset()
/// is the byte it stopped at.
class Parser {
public:
  Parser(const char *P, const char *End) : Begin(P), P(P), End(End) {}

  size_t errorOffset() const { return static_cast<size_t>(P - Begin); }

  ErrorOr<JsonValue> run() {
    skipWs();
    ErrorOr<JsonValue> V = parseValue();
    if (!V)
      return V;
    skipWs();
    if (P != End)
      return fail("trailing garbage");
    return V;
  }

private:
  Error fail(const std::string &Msg) const {
    return Error(ErrorCode::InvalidSpec,
                 Msg + " at offset " + std::to_string(errorOffset()));
  }

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }

  /// On a mismatch P stays on the first byte that differs, so the error
  /// points there.
  bool literal(const char *Word) {
    for (; *Word; ++Word, ++P)
      if (P == End || *P != *Word)
        return false;
    return true;
  }

  ErrorOr<std::string> parseString() {
    if (P == End || *P != '"')
      return fail("expected string");
    ++P;
    std::string Out;
    while (P != End && *P != '"') {
      if (static_cast<unsigned char>(*P) < 0x20)
        return fail("unescaped control character in string");
      if (*P == '\\') {
        ++P;
        if (P == End)
          return fail("truncated escape");
        switch (*P) {
        case '"': Out += '"'; ++P; break;
        case '\\': Out += '\\'; ++P; break;
        case '/': Out += '/'; ++P; break;
        case 'b': Out += '\b'; ++P; break;
        case 'f': Out += '\f'; ++P; break;
        case 'n': Out += '\n'; ++P; break;
        case 'r': Out += '\r'; ++P; break;
        case 't': Out += '\t'; ++P; break;
        case 'u': {
          ++P;
          unsigned Code = 0;
          for (int I = 0; I < 4; ++I, ++P) {
            if (P == End || !std::isxdigit(static_cast<unsigned char>(*P)))
              return fail("bad \\u escape");
            Code = Code * 16 +
                   static_cast<unsigned>(
                       std::isdigit(static_cast<unsigned char>(*P))
                           ? *P - '0'
                           : std::tolower(static_cast<unsigned char>(*P)) -
                                 'a' + 10);
          }
          // Minimal UTF-8 encoding of the BMP code point; surrogate
          // pairs are passed through as two 3-byte sequences (our
          // emitters never produce them).
          if (Code < 0x80) {
            Out += static_cast<char>(Code);
          } else if (Code < 0x800) {
            Out += static_cast<char>(0xC0 | (Code >> 6));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          } else {
            Out += static_cast<char>(0xE0 | (Code >> 12));
            Out += static_cast<char>(0x80 | ((Code >> 6) & 0x3F));
            Out += static_cast<char>(0x80 | (Code & 0x3F));
          }
          break;
        }
        default:
          return fail("bad escape character");
        }
      } else {
        Out += *P++;
      }
    }
    if (P == End)
      return fail("unterminated string");
    ++P; // closing quote
    return Out;
  }

  ErrorOr<JsonValue> parseNumber() {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
      return fail("bad number");
    if (*P == '0')
      ++P;
    else
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    if (P != End && *P == '.') {
      ++P;
      if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
        return fail("bad fraction");
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    }
    if (P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
        return fail("bad exponent");
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    }
    return JsonValue::makeNumber(
        std::strtod(std::string(Start, P).c_str(), nullptr));
  }

  ErrorOr<JsonValue> parseValue() {
    if (++Depth > MaxDepth)
      return fail("nesting too deep");
    ErrorOr<JsonValue> V = parseValueImpl();
    --Depth;
    return V;
  }

  ErrorOr<JsonValue> parseValueImpl() {
    if (P == End)
      return fail("unexpected end of input");
    switch (*P) {
    case '{': {
      ++P;
      JsonValue Obj = JsonValue::makeObject();
      skipWs();
      if (P != End && *P == '}') {
        ++P;
        return Obj;
      }
      for (;;) {
        skipWs();
        ErrorOr<std::string> Key = parseString();
        if (!Key)
          return Key.takeError();
        if (Obj.find(*Key))
          return fail("duplicate object key '" + *Key + "'");
        skipWs();
        if (P == End || *P != ':')
          return fail("expected ':'");
        ++P;
        skipWs();
        ErrorOr<JsonValue> Value = parseValue();
        if (!Value)
          return Value;
        Obj.asObject().emplace_back(std::move(*Key), std::move(*Value));
        skipWs();
        if (P != End && *P == ',') {
          ++P;
          continue;
        }
        if (P != End && *P == '}') {
          ++P;
          return Obj;
        }
        return fail("expected ',' or '}'");
      }
    }
    case '[': {
      ++P;
      JsonValue Arr = JsonValue::makeArray();
      skipWs();
      if (P != End && *P == ']') {
        ++P;
        return Arr;
      }
      for (;;) {
        skipWs();
        ErrorOr<JsonValue> Value = parseValue();
        if (!Value)
          return Value;
        Arr.asArray().push_back(std::move(*Value));
        skipWs();
        if (P != End && *P == ',') {
          ++P;
          continue;
        }
        if (P != End && *P == ']') {
          ++P;
          return Arr;
        }
        return fail("expected ',' or ']'");
      }
    }
    case '"':
      return std::move(parseString()).map(
          [](std::string S) { return JsonValue::makeString(std::move(S)); });
    case 't':
      if (literal("true"))
        return JsonValue::makeBool(true);
      return fail("bad literal");
    case 'f':
      if (literal("false"))
        return JsonValue::makeBool(false);
      return fail("bad literal");
    case 'n':
      if (literal("null"))
        return JsonValue();
      return fail("bad literal");
    default:
      return parseNumber();
    }
  }

  static constexpr int MaxDepth = 256;
  const char *Begin;
  const char *P;
  const char *End;
  int Depth = 0;
};

} // namespace

ErrorOr<JsonValue> cogent::support::parseJson(const std::string &Text) {
  Parser P(Text.data(), Text.data() + Text.size());
  return P.run();
}

bool cogent::support::validateJson(const std::string &Text, std::string *Err) {
  return validateJsonAt(Text, Err, nullptr, nullptr);
}

bool cogent::support::validateJsonAt(const std::string &Text, std::string *Err,
                                     size_t *ErrLine, size_t *ErrColumn) {
  Parser P(Text.data(), Text.data() + Text.size());
  ErrorOr<JsonValue> Parsed = P.run();
  if (Parsed)
    return true;
  if (Err)
    *Err = Parsed.error().message();
  size_t Line = 1, Column = 1;
  for (size_t I = 0; I < P.errorOffset() && I < Text.size(); ++I) {
    if (Text[I] == '\n') {
      ++Line;
      Column = 1;
    } else {
      ++Column;
    }
  }
  if (ErrLine)
    *ErrLine = Line;
  if (ErrColumn)
    *ErrColumn = Column;
  return false;
}

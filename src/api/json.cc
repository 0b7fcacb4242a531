#include "api/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "util/string_util.h"

namespace kpj::api {
namespace {

/// Wire objects nest envelope -> batch -> query -> paths -> nodes; 64
/// levels is an order of magnitude of headroom while keeping recursive
/// descent safe on untrusted input.
constexpr int kMaxDepth = 64;

struct Parser {
  std::string_view text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }

  void SkipWhitespace() {
    while (!AtEnd() && (text[pos] == ' ' || text[pos] == '\t' ||
                        text[pos] == '\n' || text[pos] == '\r')) {
      ++pos;
    }
  }

  Status Error(const std::string& what) const {
    return Status::InvalidArgument("JSON parse error at offset " +
                                   std::to_string(pos) + ": " + what);
  }

  bool Consume(char c) {
    if (AtEnd() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  bool ConsumeLiteral(std::string_view literal) {
    if (text.substr(pos, literal.size()) != literal) return false;
    pos += literal.size();
    return true;
  }

  Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (AtEnd()) return Error("unexpected end of input");
    char c = Peek();
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      Result<std::string> s = ParseString();
      if (!s.ok()) return s.status();
      return JsonValue::Str(std::move(s).value());
    }
    if (ConsumeLiteral("true")) return JsonValue::Bool(true);
    if (ConsumeLiteral("false")) return JsonValue::Bool(false);
    if (ConsumeLiteral("null")) return JsonValue::Null();
    if (c == '-' || (c >= '0' && c <= '9')) return ParseNumber();
    return Error(std::string("unexpected character '") + c + "'");
  }

  Result<JsonValue> ParseObject(int depth) {
    ++pos;  // '{'
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      if (AtEnd() || Peek() != '"') return Error("expected object key");
      Result<std::string> key = ParseString();
      if (!key.ok()) return key.status();
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':' after object key");
      Result<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      object.Set(std::move(key).value(), std::move(value).value());
      SkipWhitespace();
      if (Consume('}')) return object;
      if (!Consume(',')) return Error("expected ',' or '}' in object");
    }
  }

  Result<JsonValue> ParseArray(int depth) {
    ++pos;  // '['
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      Result<JsonValue> value = ParseValue(depth + 1);
      if (!value.ok()) return value.status();
      array.Append(std::move(value).value());
      SkipWhitespace();
      if (Consume(']')) return array;
      if (!Consume(',')) return Error("expected ',' or ']' in array");
    }
  }

  Result<std::string> ParseString() {
    ++pos;  // '"'
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string");
      char c = text[pos++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (AtEnd()) return Error("unterminated escape");
      char e = text[pos++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          Result<uint32_t> unit = ParseHex4();
          if (!unit.ok()) return unit.status();
          uint32_t code = unit.value();
          // Combine a surrogate pair into one code point.
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!ConsumeLiteral("\\u")) {
              return Error("unpaired high surrogate");
            }
            Result<uint32_t> low = ParseHex4();
            if (!low.ok()) return low.status();
            if (low.value() < 0xDC00 || low.value() > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low.value() - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("unpaired low surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("invalid escape character");
      }
    }
  }

  Result<uint32_t> ParseHex4() {
    if (pos + 4 > text.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text[pos++];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("non-hex digit in \\u escape");
      }
    }
    return value;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    size_t start = pos;
    if (Consume('-')) {
      // Sign consumed; digits follow.
    }
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Error("malformed number");
    }
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos;
    }
    bool integral = true;
    if (!AtEnd() && Peek() == '.') {
      integral = false;
      ++pos;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("malformed fraction");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos;
      }
    }
    if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
      integral = false;
      ++pos;
      if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos;
      if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
        return Error("malformed exponent");
      }
      while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) {
        ++pos;
      }
    }
    std::string_view token = text.substr(start, pos - start);
    if (integral) {
      int64_t value = 0;
      auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), value);
      if (ec == std::errc() && ptr == token.data() + token.size()) {
        return JsonValue::Int(value);
      }
      // Out-of-int64-range integer literal: fall through to double.
    }
    double value = std::strtod(std::string(token).c_str(), nullptr);
    if (!std::isfinite(value)) return Error("number out of range");
    return JsonValue::Double(value);
  }
};

Status MissingField(std::string_view key) {
  return Status::InvalidArgument("missing field '" + std::string(key) + "'");
}

Status WrongType(std::string_view key, const char* want) {
  return Status::InvalidArgument("field '" + std::string(key) +
                                 "' must be " + want);
}

Result<int64_t> IntOf(const JsonValue& v, std::string_view key) {
  if (v.is_int()) return v.int_value();
  if (v.is_double()) {
    double d = v.number_value();
    // int64 max rounds up to 2^63 as a double, which no int64 holds, so
    // the upper bound is exclusive.
    if (d == std::floor(d) &&
        d >= static_cast<double>(std::numeric_limits<int64_t>::min()) &&
        d < static_cast<double>(std::numeric_limits<int64_t>::max())) {
      return static_cast<int64_t>(d);
    }
  }
  return WrongType(key, "an integer");
}

}  // namespace

JsonValue JsonValue::Uint(uint64_t v) {
  if (v > static_cast<uint64_t>(std::numeric_limits<int64_t>::max())) {
    return Int(std::numeric_limits<int64_t>::max());
  }
  return Int(static_cast<int64_t>(v));
}

const JsonValue* JsonValue::Find(std::string_view key) const {
  for (const Member& m : members()) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

JsonValue* JsonValue::Find(std::string_view key) {
  return const_cast<JsonValue*>(std::as_const(*this).Find(key));
}

std::string JsonValue::Dump() const {
  std::string out;
  JsonWriter(&out).Value(*this);
  return out;
}

// --- JsonWriter -------------------------------------------------------------

JsonWriter& JsonWriter::BeginObject() {
  Separate();
  out_->push_back('{');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndObject() {
  out_->push_back('}');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::BeginArray() {
  Separate();
  out_->push_back('[');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::EndArray() {
  out_->push_back(']');
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Key(std::string_view key) {
  Separate();
  AppendJsonEscaped(key, out_);
  out_->push_back(':');
  need_comma_ = false;
  return *this;
}

JsonWriter& JsonWriter::Null() {
  Separate();
  out_->append("null");
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Bool(bool v) {
  Separate();
  out_->append(v ? "true" : "false");
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Int(int64_t v) {
  Separate();
  char buf[24];
  std::to_chars_result end = std::to_chars(buf, buf + sizeof(buf), v);
  out_->append(buf, end.ptr);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Uint(uint64_t v) {
  constexpr uint64_t kMax = std::numeric_limits<int64_t>::max();
  return Int(static_cast<int64_t>(v > kMax ? kMax : v));
}

JsonWriter& JsonWriter::Double(double v) {
  Separate();
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  int n = std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_->append(buf, static_cast<size_t>(n));
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::String(std::string_view v) {
  Separate();
  AppendJsonEscaped(v, out_);
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Uint32Array(std::span<const uint32_t> values) {
  constexpr size_t kMaxDigits = 10;  // 4294967295
  Separate();
  const size_t start = out_->size();
  out_->resize(start + 2 + values.size() * (kMaxDigits + 1));
  char* p = out_->data() + start;
  *p++ = '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i != 0) *p++ = ',';
    p = std::to_chars(p, p + kMaxDigits, values[i]).ptr;
  }
  *p++ = ']';
  out_->resize(static_cast<size_t>(p - out_->data()));
  need_comma_ = true;
  return *this;
}

JsonWriter& JsonWriter::Value(const JsonValue& value) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      return Null();
    case JsonValue::Kind::kBool:
      return Bool(value.bool_value());
    case JsonValue::Kind::kInt:
      return Int(value.int_value());
    case JsonValue::Kind::kDouble:
      return Double(value.number_value());
    case JsonValue::Kind::kString:
      return String(value.string_value());
    case JsonValue::Kind::kArray:
      BeginArray();
      for (const JsonValue& item : value.items()) Value(item);
      return EndArray();
    case JsonValue::Kind::kObject:
      BeginObject();
      for (const JsonValue::Member& m : value.members()) {
        Key(m.first).Value(m.second);
      }
      return EndObject();
  }
  return *this;
}

Result<JsonValue> JsonValue::Parse(std::string_view text) {
  Parser parser{text};
  Result<JsonValue> value = parser.ParseValue(0);
  if (!value.ok()) return value.status();
  parser.SkipWhitespace();
  if (!parser.AtEnd()) {
    return parser.Error("trailing characters after document");
  }
  return value;
}

Result<int64_t> GetInt(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) return MissingField(key);
  return IntOf(*v, key);
}

Result<int64_t> GetInt(const JsonValue& object, std::string_view key,
                       int64_t def) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->is_null()) return def;
  return IntOf(*v, key);
}

Result<double> GetDouble(const JsonValue& object, std::string_view key,
                         double def) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->is_null()) return def;
  if (!v->is_number()) return WrongType(key, "a number");
  return v->number_value();
}

Result<std::string> GetString(const JsonValue& object, std::string_view key) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr) return MissingField(key);
  if (!v->is_string()) return WrongType(key, "a string");
  return v->string_value();
}

Result<std::string> GetString(const JsonValue& object, std::string_view key,
                              std::string def) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->is_null()) return def;
  if (!v->is_string()) return WrongType(key, "a string");
  return v->string_value();
}

Result<bool> GetBool(const JsonValue& object, std::string_view key,
                     bool def) {
  const JsonValue* v = object.Find(key);
  if (v == nullptr || v->is_null()) return def;
  if (!v->is_bool()) return WrongType(key, "a boolean");
  return v->bool_value();
}

}  // namespace kpj::api

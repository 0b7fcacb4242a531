#ifndef KPJ_API_JSON_H_
#define KPJ_API_JSON_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "util/status.h"

namespace kpj::api {

class JsonValue;

/// Append-only JSON writer: the one place that formats JSON numbers and
/// strings. It appends compact text to a caller-owned string, inserting
/// the separators itself, so a payload can be streamed straight into a
/// frame buffer with no tree in between (api/wire.h ResponseWriter), and
/// JsonValue::Dump is a walk over it.
///
/// Integers go through std::to_chars; Uint clamps past int64 range like
/// JsonValue::Uint. Doubles use "%.17g" (enough digits to round-trip), and
/// NaN/Inf, which JSON cannot express, are written as 0 like the engine's
/// metrics exposition does. Strings go through AppendJsonEscaped.
///
/// The writer does not check nesting: every Begin needs its End, and
/// inside an object every value needs a Key first.
class JsonWriter {
 public:
  explicit JsonWriter(std::string* out) : out_(out) {}

  JsonWriter& BeginObject();
  JsonWriter& EndObject();
  JsonWriter& BeginArray();
  JsonWriter& EndArray();
  /// Object member name; the next call writes its value.
  JsonWriter& Key(std::string_view key);

  JsonWriter& Null();
  JsonWriter& Bool(bool v);
  JsonWriter& Int(int64_t v);
  JsonWriter& Uint(uint64_t v);
  JsonWriter& Double(double v);
  JsonWriter& String(std::string_view v);
  JsonWriter& Value(const JsonValue& value);
  /// A whole array of 32-bit unsigned values (a path's node ids, the hot
  /// loop of a query answer), formatted in one pass into a pre-sized tail
  /// of the buffer.
  JsonWriter& Uint32Array(std::span<const uint32_t> values);

 private:
  /// Writes the ',' that precedes every element but a container's first.
  void Separate() {
    if (need_comma_) out_->push_back(',');
  }

  std::string* out_;
  bool need_comma_ = false;
};

/// Owning JSON document tree used by the wire protocol (api/wire.h): one
/// type serves both directions, so every request/response struct has a
/// single ToJson/FromJson pair and round-trips exactly.
///
/// Integers are stored as int64 (not double) so node ids, path lengths and
/// counters survive serialization bit-exactly — the daemon's answers must
/// be byte-identical to in-process results, and a 2^53 double mantissa is
/// not a contract we want to lean on. Object keys keep insertion order so
/// serialized output is deterministic.
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString, kArray, kObject };

  using Member = std::pair<std::string, JsonValue>;

  JsonValue() : value_(nullptr) {}

  static JsonValue Null() { return JsonValue(); }
  static JsonValue Bool(bool v) { return JsonValue(v); }
  static JsonValue Int(int64_t v) { return JsonValue(v); }
  /// Counters are uint64 in the engine; values past int64 range are
  /// clamped (they are telemetry, and a 9.2e18 event count is already
  /// saturated in every practical sense).
  static JsonValue Uint(uint64_t v);
  static JsonValue Double(double v) { return JsonValue(v); }
  static JsonValue Str(std::string v) { return JsonValue(std::move(v)); }
  static JsonValue Array() {
    JsonValue v;
    v.value_ = std::vector<JsonValue>{};
    return v;
  }
  static JsonValue Object() {
    JsonValue v;
    v.value_ = std::vector<Member>{};
    return v;
  }

  Kind kind() const { return static_cast<Kind>(value_.index()); }
  bool is_null() const { return kind() == Kind::kNull; }
  bool is_bool() const { return kind() == Kind::kBool; }
  bool is_int() const { return kind() == Kind::kInt; }
  bool is_double() const { return kind() == Kind::kDouble; }
  /// Any JSON number (integer- or double-stored).
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return kind() == Kind::kString; }
  bool is_array() const { return kind() == Kind::kArray; }
  bool is_object() const { return kind() == Kind::kObject; }

  bool bool_value() const { return std::get<bool>(value_); }
  int64_t int_value() const { return std::get<int64_t>(value_); }
  /// Numeric value as double regardless of storage kind.
  double number_value() const {
    return is_int() ? static_cast<double>(int_value())
                    : std::get<double>(value_);
  }
  const std::string& string_value() const {
    return std::get<std::string>(value_);
  }

  // --- Arrays -----------------------------------------------------------
  void Append(JsonValue element) {
    std::get<std::vector<JsonValue>>(value_).push_back(std::move(element));
  }
  const std::vector<JsonValue>& items() const {
    return std::get<std::vector<JsonValue>>(value_);
  }

  // --- Objects ----------------------------------------------------------
  void Set(std::string key, JsonValue value) {
    std::get<std::vector<Member>>(value_)
        .emplace_back(std::move(key), std::move(value));
  }
  const std::vector<Member>& members() const {
    return std::get<std::vector<Member>>(value_);
  }
  /// First member named `key`, or nullptr. Lookups are linear: wire
  /// objects have a dozen keys, not thousands.
  const JsonValue* Find(std::string_view key) const;
  /// Mutable lookup, so a parser can move a member out of its document.
  JsonValue* Find(std::string_view key);

  /// Compact single-line serialization (the wire format), written by
  /// JsonWriter.
  std::string Dump() const;

  /// Parses one JSON document; trailing non-whitespace is an error, as is
  /// nesting beyond an internal depth limit (the wire protocol never nests
  /// more than a handful of levels; the limit stops hostile input from
  /// exhausting the stack).
  static Result<JsonValue> Parse(std::string_view text);

 private:
  explicit JsonValue(bool v) : value_(v) {}
  explicit JsonValue(int64_t v) : value_(v) {}
  explicit JsonValue(double v) : value_(v) {}
  explicit JsonValue(std::string v) : value_(std::move(v)) {}

  std::variant<std::nullptr_t, bool, int64_t, double, std::string,
               std::vector<JsonValue>, std::vector<Member>>
      value_;
};

// --- Typed member readers -----------------------------------------------
// Shared accessors for FromJson code: one error format ("field 'k' ...")
// across every request/response parser.

/// Required integer field (a double-stored whole number is accepted).
Result<int64_t> GetInt(const JsonValue& object, std::string_view key);
/// Optional integer field with default.
Result<int64_t> GetInt(const JsonValue& object, std::string_view key,
                       int64_t def);
/// Optional number field with default.
Result<double> GetDouble(const JsonValue& object, std::string_view key,
                         double def);
/// Required string field.
Result<std::string> GetString(const JsonValue& object, std::string_view key);
/// Optional string field with default.
Result<std::string> GetString(const JsonValue& object, std::string_view key,
                              std::string def);
/// Optional bool field with default.
Result<bool> GetBool(const JsonValue& object, std::string_view key, bool def);

}  // namespace kpj::api

#endif  // KPJ_API_JSON_H_

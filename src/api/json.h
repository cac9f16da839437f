#ifndef VPART_API_JSON_H_
#define VPART_API_JSON_H_

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace vpart {

/// Minimal JSON document model for the service API: enough to parse an
/// AdviseRequest and serialize an AdviseResponse without external
/// dependencies. Objects preserve insertion order (stable, diffable CLI
/// output); duplicate keys are rejected by the parser.
class JsonValue {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Member = std::pair<std::string, JsonValue>;
  using Object = std::vector<Member>;

  JsonValue() : type_(Type::kNull) {}
  JsonValue(bool value) : type_(Type::kBool), bool_(value) {}        // NOLINT
  JsonValue(double value) : type_(Type::kNumber), number_(value) {}  // NOLINT
  JsonValue(int value)                                               // NOLINT
      : type_(Type::kNumber), number_(value) {}
  JsonValue(long value)                                              // NOLINT
      : type_(Type::kNumber), number_(static_cast<double>(value)) {}
  JsonValue(const char* value) : type_(Type::kString), string_(value) {} // NOLINT
  JsonValue(std::string value)                                       // NOLINT
      : type_(Type::kString), string_(std::move(value)) {}

  static JsonValue MakeArray() {
    JsonValue v;
    v.type_ = Type::kArray;
    return v;
  }
  static JsonValue MakeObject() {
    JsonValue v;
    v.type_ = Type::kObject;
    return v;
  }

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_number() const { return type_ == Type::kNumber; }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  /// Typed accessors; must only be called on the matching type.
  bool as_bool() const { return bool_; }
  double as_number() const { return number_; }
  const std::string& as_string() const { return string_; }
  const Array& as_array() const { return array_; }
  const Object& as_object() const { return object_; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Appends to an array value.
  void Append(JsonValue value) { array_.push_back(std::move(value)); }

  /// Sets (or replaces) an object member, preserving insertion order.
  void Set(std::string_view key, JsonValue value);

  /// Serializes; `indent` > 0 pretty-prints with that many spaces per
  /// level. Non-finite numbers serialize as null (JSON has no inf/nan).
  std::string Serialize(int indent = 0) const;

  /// Strict recursive-descent parse of a complete JSON document (trailing
  /// garbage is an error). Depth-limited; \uXXXX escapes decode to UTF-8.
  static StatusOr<JsonValue> Parse(std::string_view text);

 private:
  void SerializeTo(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

/// Escapes `text` as a JSON string literal (with quotes).
std::string JsonQuote(std::string_view text);

/// ±2^53: every integer in this range survives the double that carries it.
inline constexpr long kJsonMaxExactInteger = 9007199254740992L;

/// The integer `value` holds when it is a number with no fractional part
/// inside [min, max]; nullopt otherwise. Every integer read from untrusted
/// JSON goes through here: casting any other double to an integer type is
/// undefined (out of range) or lossy (a fraction).
std::optional<long> JsonInteger(const JsonValue& value, long min, long max);

}  // namespace vpart

#endif  // VPART_API_JSON_H_

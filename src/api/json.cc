#include "api/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace vpart {
namespace {

constexpr int kMaxDepth = 100;

/// Cursor over the input with shared error helpers.
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

  Status Error(const std::string& message) const {
    return InvalidArgumentError("JSON parse error at offset " +
                                std::to_string(pos) + ": " + message);
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

  StatusOr<JsonValue> ParseValue(int depth);
  StatusOr<std::string> ParseString();
  StatusOr<JsonValue> ParseNumber();
};

void AppendUtf8(std::string& out, unsigned code_point) {
  if (code_point < 0x80) {
    out.push_back(static_cast<char>(code_point));
  } else if (code_point < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (code_point >> 6)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else if (code_point < 0x10000) {
    out.push_back(static_cast<char>(0xE0 | (code_point >> 12)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (code_point >> 18)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((code_point >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (code_point & 0x3F)));
  }
}

StatusOr<std::string> Parser::ParseString() {
  if (!Consume('"')) return Error("expected '\"'");
  std::string out;
  while (true) {
    if (AtEnd()) return Error("unterminated string");
    char c = text[pos++];
    if (c == '"') return out;
    if (static_cast<unsigned char>(c) < 0x20) {
      return Error("unescaped control character in string");
    }
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (AtEnd()) return Error("unterminated escape");
    char esc = text[pos++];
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        auto hex4 = [this]() -> int {
          if (pos + 4 > text.size()) return -1;
          unsigned value = 0;
          for (int i = 0; i < 4; ++i) {
            char h = text[pos + i];
            value <<= 4;
            if (h >= '0' && h <= '9') value |= h - '0';
            else if (h >= 'a' && h <= 'f') value |= h - 'a' + 10;
            else if (h >= 'A' && h <= 'F') value |= h - 'A' + 10;
            else return -1;
          }
          pos += 4;
          return static_cast<int>(value);
        };
        int unit = hex4();
        if (unit < 0) return Error("invalid \\u escape");
        unsigned code_point = static_cast<unsigned>(unit);
        // Surrogate pair: a high surrogate must chain a \u low surrogate.
        if (unit >= 0xD800 && unit <= 0xDBFF) {
          if (!ConsumeLiteral("\\u")) return Error("lone high surrogate");
          int low = hex4();
          if (low < 0xDC00 || low > 0xDFFF) {
            return Error("invalid low surrogate");
          }
          code_point = 0x10000 + ((static_cast<unsigned>(unit) - 0xD800) << 10) +
                       (static_cast<unsigned>(low) - 0xDC00);
        } else if (unit >= 0xDC00 && unit <= 0xDFFF) {
          return Error("lone low surrogate");
        }
        AppendUtf8(out, code_point);
        break;
      }
      default:
        return Error("invalid escape character");
    }
  }
}

StatusOr<JsonValue> Parser::ParseNumber() {
  const size_t start = pos;
  if (Consume('-')) {}
  if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
    return Error("invalid number");
  }
  while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos;
  if (Consume('.')) {
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Error("digits required after decimal point");
    }
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos;
  }
  if (!AtEnd() && (Peek() == 'e' || Peek() == 'E')) {
    ++pos;
    if (!AtEnd() && (Peek() == '+' || Peek() == '-')) ++pos;
    if (AtEnd() || !std::isdigit(static_cast<unsigned char>(Peek()))) {
      return Error("digits required in exponent");
    }
    while (!AtEnd() && std::isdigit(static_cast<unsigned char>(Peek()))) ++pos;
  }
  const std::string token(text.substr(start, pos - start));
  const double value = std::strtod(token.c_str(), nullptr);
  // strtod saturates "1e999"-style tokens to +/-HUGE_VAL. A non-finite
  // number has no JSON representation and would poison downstream math, so
  // reject it here rather than letting it masquerade as a parsed value.
  if (!std::isfinite(value)) {
    return Error("number out of range");
  }
  return JsonValue(value);
}

StatusOr<JsonValue> Parser::ParseValue(int depth) {
  if (depth > kMaxDepth) return Error("nesting too deep");
  SkipWhitespace();
  if (AtEnd()) return Error("unexpected end of input");
  const char c = Peek();
  if (c == 'n') {
    if (!ConsumeLiteral("null")) return Error("invalid literal");
    return JsonValue();
  }
  if (c == 't') {
    if (!ConsumeLiteral("true")) return Error("invalid literal");
    return JsonValue(true);
  }
  if (c == 'f') {
    if (!ConsumeLiteral("false")) return Error("invalid literal");
    return JsonValue(false);
  }
  if (c == '"') {
    StatusOr<std::string> s = ParseString();
    VPART_RETURN_IF_ERROR(s.status());
    return JsonValue(std::move(*s));
  }
  if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
    return ParseNumber();
  }
  if (c == '[') {
    ++pos;
    JsonValue array = JsonValue::MakeArray();
    SkipWhitespace();
    if (Consume(']')) return array;
    while (true) {
      StatusOr<JsonValue> element = ParseValue(depth + 1);
      VPART_RETURN_IF_ERROR(element.status());
      array.Append(std::move(*element));
      SkipWhitespace();
      if (Consume(']')) return array;
      if (!Consume(',')) return Error("expected ',' or ']'");
    }
  }
  if (c == '{') {
    ++pos;
    JsonValue object = JsonValue::MakeObject();
    SkipWhitespace();
    if (Consume('}')) return object;
    while (true) {
      SkipWhitespace();
      StatusOr<std::string> key = ParseString();
      VPART_RETURN_IF_ERROR(key.status());
      if (object.Find(*key) != nullptr) {
        return Error("duplicate key '" + *key + "'");
      }
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      StatusOr<JsonValue> value = ParseValue(depth + 1);
      VPART_RETURN_IF_ERROR(value.status());
      object.Set(*key, std::move(*value));
      SkipWhitespace();
      if (Consume('}')) return object;
      if (!Consume(',')) return Error("expected ',' or '}'");
    }
  }
  return Error("unexpected character");
}

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& member : object_) {
    if (member.first == key) return &member.second;
  }
  return nullptr;
}

void JsonValue::Set(std::string_view key, JsonValue value) {
  for (Member& member : object_) {
    if (member.first == key) {
      member.second = std::move(value);
      return;
    }
  }
  object_.emplace_back(std::string(key), std::move(value));
}

std::optional<long> JsonInteger(const JsonValue& value, long min, long max) {
  if (!value.is_number()) return std::nullopt;
  const double number = value.as_number();
  if (number != std::floor(number) || number < static_cast<double>(min) ||
      number > static_cast<double>(max)) {
    return std::nullopt;
  }
  return static_cast<long>(number);
}

std::string JsonQuote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned char>(c));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

void JsonValue::SerializeTo(std::string& out, int indent, int depth) const {
  const std::string newline =
      indent > 0 ? "\n" + std::string(static_cast<size_t>(indent) *
                                          (static_cast<size_t>(depth) + 1),
                                      ' ')
                 : "";
  const std::string closing_newline =
      indent > 0
          ? "\n" + std::string(static_cast<size_t>(indent) *
                                   static_cast<size_t>(depth), ' ')
          : "";
  switch (type_) {
    case Type::kNull:
      out += "null";
      return;
    case Type::kBool:
      out += bool_ ? "true" : "false";
      return;
    case Type::kNumber: {
      if (!std::isfinite(number_)) {
        out += "null";
        return;
      }
      // Integers print without a fraction; everything else round-trips.
      if (number_ == std::floor(number_) && std::abs(number_) < 1e15) {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.0f", number_);
        out += buffer;
      } else {
        char buffer[32];
        std::snprintf(buffer, sizeof(buffer), "%.17g", number_);
        out += buffer;
      }
      return;
    }
    case Type::kString:
      out += JsonQuote(string_);
      return;
    case Type::kArray: {
      if (array_.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (size_t i = 0; i < array_.size(); ++i) {
        if (i > 0) out += ',';
        out += newline;
        array_[i].SerializeTo(out, indent, depth + 1);
      }
      out += closing_newline;
      out += ']';
      return;
    }
    case Type::kObject: {
      if (object_.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      for (size_t i = 0; i < object_.size(); ++i) {
        if (i > 0) out += ',';
        out += newline;
        out += JsonQuote(object_[i].first);
        out += indent > 0 ? ": " : ":";
        object_[i].second.SerializeTo(out, indent, depth + 1);
      }
      out += closing_newline;
      out += '}';
      return;
    }
  }
}

std::string JsonValue::Serialize(int indent) const {
  std::string out;
  SerializeTo(out, indent, 0);
  return out;
}

StatusOr<JsonValue> JsonValue::Parse(std::string_view text) {
  Parser parser{text};
  StatusOr<JsonValue> value = parser.ParseValue(0);
  VPART_RETURN_IF_ERROR(value.status());
  parser.SkipWhitespace();
  if (!parser.AtEnd()) {
    return parser.Error("trailing content after document");
  }
  return value;
}

}  // namespace vpart

#include "src/util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>

namespace setlib {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  std::ostringstream os;
  os << value;
  return os.str();
}

std::string json_quote(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"':
        out.append("\\\"");
        break;
      case '\\':
        out.append("\\\\");
        break;
      case '\b':
        out.append("\\b");
        break;
      case '\f':
        out.append("\\f");
        break;
      case '\n':
        out.append("\\n");
        break;
      case '\r':
        out.append("\\r");
        break;
      case '\t':
        out.append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(c) & 0xff);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

JsonValue JsonValue::null() { return JsonValue{}; }

JsonValue JsonValue::of(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::of(double value) {
  if (!std::isfinite(value)) return null();
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  v.text_ = json_number(value);
  return v;
}

JsonValue JsonValue::of(std::int64_t value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  v.text_ = std::to_string(value);
  return v;
}

JsonValue JsonValue::of(std::size_t value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = static_cast<double>(value);
  v.text_ = std::to_string(value);
  return v;
}

JsonValue JsonValue::of(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.text_ = std::move(value);
  return v;
}

JsonValue JsonValue::of(const char* value) {
  return of(std::string(value));
}

JsonValue JsonValue::number_literal(std::string literal, double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  v.text_ = std::move(literal);
  return v;
}

JsonValue JsonValue::array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.items_ = std::move(items);
  return v;
}

JsonValue JsonValue::object(std::vector<Member> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  for (auto& [key, value] : members) v.set(key, std::move(value));
  return v;
}

namespace {

[[noreturn]] void fail(std::size_t at, const std::string& what) {
  throw JsonParseError("json parse error at byte " + std::to_string(at) +
                       ": " + what);
}

// The parser recurses once per array or object level, so an unbounded
// nesting depth would let a hostile document exhaust the stack. The
// deepest document the repo writes nests 6 levels.
constexpr int kMaxDepth = 256;

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  JsonValue parse_document() {
    JsonValue value = parse_value(0);
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing content");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) {
      fail(pos_, std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool consume_word(const char* word) {
    const std::size_t len = std::char_traits<char>::length(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  // `depth` counts the containers enclosing this value.
  JsonValue parse_value(int depth) {
    skip_ws();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxDepth) {
      fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth));
    }
    switch (c) {
      case '{':
        return parse_object(depth + 1);
      case '[':
        return parse_array(depth + 1);
      case '"':
        return JsonValue::of(parse_string());
      case 't':
        if (!consume_word("true")) fail(pos_, "bad literal");
        return JsonValue::of(true);
      case 'f':
        if (!consume_word("false")) fail(pos_, "bad literal");
        return JsonValue::of(false);
      case 'n':
        if (!consume_word("null")) fail(pos_, "bad literal");
        return JsonValue::null();
      default:
        return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue out = JsonValue::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      out.set(key, parse_value(depth));
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == '}') return out;
      if (next != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    std::vector<JsonValue> items;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return JsonValue::array(std::move(items));
    }
    for (;;) {
      items.push_back(parse_value(depth));
      skip_ws();
      const char next = peek();
      ++pos_;
      if (next == ']') return JsonValue::array(std::move(items));
      if (next != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail(pos_ - 1, "raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"':
          out.push_back('"');
          break;
        case '\\':
          out.push_back('\\');
          break;
        case '/':
          out.push_back('/');
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail(pos_ - 1, "bad hex digit in \\u escape");
            }
          }
          // UTF-8 encode (surrogate pairs are passed through as two
          // separate code points; the repo's documents are ASCII).
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xc0 | (code >> 6)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          } else {
            out.push_back(static_cast<char>(0xe0 | (code >> 12)));
            out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
            out.push_back(static_cast<char>(0x80 | (code & 0x3f)));
          }
          break;
        }
        default:
          fail(pos_ - 1, "unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    auto digits = [&] {
      const std::size_t before = pos_;
      while (pos_ < text_.size() && text_[pos_] >= '0' &&
             text_[pos_] <= '9') {
        ++pos_;
      }
      return pos_ > before;
    };
    if (!digits()) fail(pos_, "expected a number");
    // No leading zeros ("0" alone is fine).
    if (text_[int_start] == '0' && pos_ - int_start > 1) {
      fail(start, "leading zero in number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digits()) fail(pos_, "expected digits after '.'");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() &&
          (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digits()) fail(pos_, "expected exponent digits");
    }
    const std::string literal = text_.substr(start, pos_ - start);
    return JsonValue::number_literal(literal,
                                     std::strtod(literal.c_str(), nullptr));
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

JsonValue JsonValue::parse(const std::string& text) {
  return Parser(text).parse_document();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::kBool) throw JsonParseError("not a bool");
  return bool_;
}

double JsonValue::as_double() const {
  if (kind_ != Kind::kNumber) throw JsonParseError("not a number");
  return number_;
}

std::int64_t JsonValue::as_int() const {
  const double d = as_double();
  const auto i = static_cast<std::int64_t>(d);
  if (static_cast<double>(i) != d) {
    throw JsonParseError("number " + text_ + " is not integral");
  }
  return i;
}

const std::string& JsonValue::as_string() const {
  if (kind_ != Kind::kString) throw JsonParseError("not a string");
  return text_;
}

const std::string& JsonValue::number_text() const {
  if (kind_ != Kind::kNumber) throw JsonParseError("not a number");
  return text_;
}

const std::vector<JsonValue>& JsonValue::items() const {
  if (kind_ != Kind::kArray) throw JsonParseError("not an array");
  return items_;
}

std::vector<JsonValue>& JsonValue::items() {
  if (kind_ != Kind::kArray) throw JsonParseError("not an array");
  return items_;
}

const std::vector<JsonValue::Member>& JsonValue::members() const {
  if (kind_ != Kind::kObject) throw JsonParseError("not an object");
  return members_;
}

std::vector<JsonValue::Member>& JsonValue::members() {
  if (kind_ != Kind::kObject) throw JsonParseError("not an object");
  return members_;
}

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const JsonValue* found = find(key);
  if (found == nullptr) {
    throw JsonParseError("missing key \"" + key + "\"");
  }
  return *found;
}

void JsonValue::set(const std::string& key, JsonValue value) {
  if (kind_ == Kind::kNull && members_.empty() && items_.empty()) {
    kind_ = Kind::kObject;  // building from a default-constructed value
  }
  if (kind_ != Kind::kObject) throw JsonParseError("not an object");
  for (auto& [k, v] : members_) {
    if (k == key) {
      v = std::move(value);  // keep-last, at the original position
      return;
    }
  }
  members_.emplace_back(key, std::move(value));
}

namespace {

void dump_to(const JsonValue& value, std::string& out, int indent,
             int depth) {
  const bool pretty = indent >= 0;
  auto newline = [&](int d) {
    if (!pretty) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out.append("null");
      break;
    case JsonValue::Kind::kBool:
      out.append(value.as_bool() ? "true" : "false");
      break;
    case JsonValue::Kind::kNumber:
      out.append(value.number_text());
      break;
    case JsonValue::Kind::kString:
      out.append(json_quote(value.as_string()));
      break;
    case JsonValue::Kind::kArray: {
      const auto& items = value.items();
      if (items.empty()) {
        out.append("[]");
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out.append(pretty ? "," : ", ");
        newline(depth + 1);
        dump_to(items[i], out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      const auto& members = value.members();
      if (members.empty()) {
        out.append("{}");
        break;
      }
      out.push_back('{');
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out.append(pretty ? "," : ", ");
        newline(depth + 1);
        out.append(json_quote(members[i].first));
        out.append(": ");
        dump_to(members[i].second, out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

std::string JsonValue::dump(int indent) const {
  std::string out;
  dump_to(*this, out, indent, 0);
  if (indent >= 0) out.push_back('\n');
  return out;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      // Literal text equality: "1e3" != "1000" on purpose — merged
      // documents must reproduce the source rendering exactly.
      return text_ == other.text_;
    case Kind::kString:
      return text_ == other.text_;
    case Kind::kArray:
      return items_ == other.items_;
    case Kind::kObject:
      return members_ == other.members_;
  }
  return false;
}

}  // namespace setlib

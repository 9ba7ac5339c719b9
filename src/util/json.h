// A minimal JSON document model for the report pipeline.
//
// The repo both emits JSON (JsonSink's BENCH_<name>.json documents)
// and consumes it again: the shard merger parses the N shard documents
// and recombines them into one. JsonValue is the shared model. Two
// properties matter more than generality:
//
//   - Numbers remember their source text. A parsed document re-emits
//     every number literal byte-for-byte, so parse -> merge -> dump
//     never perturbs a deterministic fact through a double round-trip.
//     Numbers built programmatically are formatted by json_number,
//     the same formatter JsonSink uses — one rendering everywhere.
//   - Emission is always strict-parser-safe: json_quote escapes, and
//     json_number maps non-finite doubles to null, so every document
//     the repo writes round-trips through Python's json.load.
//
// The parser is strict recursive descent (no comments, no trailing
// commas, objects/arrays/strings/numbers/true/false/null). Duplicate
// object keys keep the last value at the first key's position —
// mirroring what json.load does, so the two sides agree on pathological
// documents too.
#ifndef SETLIB_UTIL_JSON_H
#define SETLIB_UTIL_JSON_H

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace setlib {

/// Thrown by JsonValue::parse on malformed input; what() carries the
/// byte offset and a short description.
class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Renders a double the way every JSON emitter in this repo does:
/// default ostream formatting, with non-finite values rendered as
/// "null" so strict parsers always accept the document.
std::string json_number(double value);

/// Escapes and quotes a string for embedding in a JSON document.
std::string json_quote(const std::string& text);

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;  // null

  static JsonValue null();
  static JsonValue of(bool value);
  /// Non-finite doubles become null (matching json_number).
  static JsonValue of(double value);
  static JsonValue of(std::int64_t value);
  static JsonValue of(std::size_t value);
  static JsonValue of(std::string value);
  static JsonValue of(const char* value);
  /// A number carrying an explicit source literal (must already be a
  /// valid JSON number rendering of `value`).
  static JsonValue number_literal(std::string literal, double value);
  static JsonValue array(std::vector<JsonValue> items = {});
  static JsonValue object(std::vector<Member> members = {});

  /// Strict parse of a complete document (trailing whitespace only).
  static JsonValue parse(const std::string& text);

  Kind kind() const noexcept { return kind_; }
  bool is_null() const noexcept { return kind_ == Kind::kNull; }
  bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  bool is_number() const noexcept { return kind_ == Kind::kNumber; }
  bool is_string() const noexcept { return kind_ == Kind::kString; }
  bool is_array() const noexcept { return kind_ == Kind::kArray; }
  bool is_object() const noexcept { return kind_ == Kind::kObject; }

  bool as_bool() const;
  double as_double() const;
  std::int64_t as_int() const;  // requires an integral number
  const std::string& as_string() const;
  /// The number's source literal (parse keeps it verbatim).
  const std::string& number_text() const;

  const std::vector<JsonValue>& items() const;
  std::vector<JsonValue>& items();
  const std::vector<Member>& members() const;
  std::vector<Member>& members();

  /// Object lookup; null when absent (or when not an object).
  const JsonValue* find(const std::string& key) const;
  /// Object lookup that throws JsonParseError when the key is absent.
  const JsonValue& at(const std::string& key) const;
  /// Inserts or overwrites (keeping the original position) a member.
  void set(const std::string& key, JsonValue value);

  /// Serializes; indent < 0 emits the compact single-line form,
  /// indent >= 0 pretty-prints with that many spaces per level.
  std::string dump(int indent = -1) const;

  bool operator==(const JsonValue& other) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string text_;  // number literal or string value
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

}  // namespace setlib

#endif  // SETLIB_UTIL_JSON_H

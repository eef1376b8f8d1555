// Minimal JSON document model for the run-artifact store.
//
// The campaign engine persists one JSON file per measurement run plus a
// manifest per campaign; loaders re-aggregate figures without re-simulating.
// Requirements that rule out an ad-hoc printf approach: byte-stable output
// (object members keep insertion order, doubles print shortest-round-trip via
// std::to_chars) so "same campaign -> same bytes" holds and the determinism
// tests can compare serialized reports verbatim; and exact integer fidelity
// (64-bit counters are kept as integers, never squeezed through a double).
// No third-party dependency: the toolchain image is frozen.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace rpv::json {

class Value;

// One object member; a vector of these preserves insertion order, which keeps
// dumps deterministic and diffs readable (std::map would reorder keys).
struct Member;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool b) : kind_{Kind::kBool}, bool_{b} {}
  Value(int i) : kind_{Kind::kInt}, int_{i} {}
  Value(std::int64_t i) : kind_{Kind::kInt}, int_{i} {}
  Value(std::uint64_t u) : kind_{Kind::kUint}, uint_{u} {}
  Value(double d) : kind_{Kind::kDouble}, double_{d} {}
  Value(std::string s) : kind_{Kind::kString}, string_{std::move(s)} {}
  Value(const char* s) : kind_{Kind::kString}, string_{s} {}

  [[nodiscard]] static Value array();
  [[nodiscard]] static Value object();

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] bool is_null() const { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_number() const {
    return kind_ == Kind::kInt || kind_ == Kind::kUint || kind_ == Kind::kDouble;
  }
  [[nodiscard]] bool is_array() const { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const { return kind_ == Kind::kObject; }
  [[nodiscard]] bool is_string() const { return kind_ == Kind::kString; }

  // Typed accessors; numeric ones coerce between the three number kinds and
  // throw std::runtime_error on any other kind mismatch. The integer ones
  // also throw when the value is not representable: a double with a fraction
  // or outside the range, a negative read as unsigned, or a uint above
  // INT64_MAX read as signed.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_i64() const;
  [[nodiscard]] std::uint64_t as_u64() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;

  // --- Arrays ---
  Value& push_back(Value v);
  [[nodiscard]] const std::vector<Value>& items() const;

  // --- Objects ---
  // Appends (or overwrites) a member; returns *this for chaining.
  Value& set(std::string key, Value v);
  // nullptr when the key is absent (or *this is not an object).
  [[nodiscard]] const Value* find(std::string_view key) const;
  // Throws std::runtime_error naming the missing key.
  [[nodiscard]] const Value& at(std::string_view key) const;
  [[nodiscard]] const std::vector<Member>& members() const;

  [[nodiscard]] std::size_t size() const;

  // Serialize. indent < 0 -> compact single line; indent >= 0 -> pretty
  // printed with that many spaces per level. Non-finite doubles become null.
  [[nodiscard]] std::string dump(int indent = -1) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  std::uint64_t uint_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

struct Member {
  std::string key;
  Value value;
};

// Parse a complete JSON document; throws std::runtime_error with an offset
// on malformed input. Integer tokens without '.'/'e' parse as kInt/kUint.
[[nodiscard]] Value parse(std::string_view text);

// Non-throwing variant for probing possibly-corrupt files.
[[nodiscard]] std::optional<Value> try_parse(std::string_view text);

// Whole-file helpers used by the artifact store.
[[nodiscard]] bool write_file(const std::string& path, const Value& v,
                              int indent = 2);
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace rpv::json

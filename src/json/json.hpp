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
//
// Node layout: a Value is a kind tag plus one 8-byte payload, 16 bytes in
// all. bool, int64, uint64 and double sit inline in the payload; a string,
// array or object sits behind one owning pointer, so copy, move and the
// destructor are written by hand. The reason is the per-packet traces: a
// stored run carries ~610k OWD samples, and one 10.9 MB report's tree took
// ~137 MB as 112-byte nodes that kept every representation side by side,
// and takes ~20 MB as 16-byte nodes.
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

// Deepest array/object nesting parse() accepts; deeper input throws instead
// of recursing until the stack runs out. The deepest artifact (report,
// manifest, fleet, radio map) nests five levels, an event two.
inline constexpr int kMaxDepth = 256;

class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  Value() = default;  // null
  Value(bool b) : kind_{Kind::kBool} { p_.b = b; }
  Value(int i) : kind_{Kind::kInt} { p_.i = i; }
  Value(std::int64_t i) : kind_{Kind::kInt} { p_.i = i; }
  Value(std::uint64_t u) : kind_{Kind::kUint} { p_.u = u; }
  Value(double d) : kind_{Kind::kDouble} { p_.d = d; }
  Value(std::string s) : kind_{Kind::kString} {
    p_.s = new std::string(std::move(s));
  }
  Value(const char* s) : kind_{Kind::kString} { p_.s = new std::string(s); }

  // Copies are deep. A moved-from Value is null.
  Value(const Value& other);
  Value(Value&& other) noexcept : kind_{other.kind_}, p_{other.p_} {
    other.kind_ = Kind::kNull;
  }
  Value& operator=(const Value& other);
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      // `other` may live inside *this: take it before freeing the old tree.
      const Value old{std::move(*this)};
      kind_ = other.kind_;
      p_ = other.p_;
      other.kind_ = Kind::kNull;
    }
    return *this;
  }
  ~Value() {
    if (on_heap()) release();
  }

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
  // Both turn a null into an empty array and throw on any other non-array.
  Value& push_back(Value v);
  Value& reserve(std::size_t n);
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
  // The same bytes, appended to `out`.
  void dump_to(std::string& out, int indent = -1) const;

 private:
  friend class Parser;  // appends parsed members without set()'s key scan

  using Array = std::vector<Value>;
  using Object = std::vector<Member>;
  union Payload {
    std::uint64_t u;
    std::int64_t i;
    double d;
    bool b;
    std::string* s;
    Array* a;
    Object* o;
  };

  // The last three kinds own their payload on the heap.
  [[nodiscard]] bool on_heap() const { return kind_ >= Kind::kString; }
  void release() noexcept;  // frees the string, array or object
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::kNull;
  Payload p_{};
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

// Two-way binding between C++ records and json::Value.
//
// A record declares its JSON layout once, as a field list found by
// argument-dependent lookup in the record's namespace:
//
//   template <class IO> void fields(IO& io, CellLoadPeak& c) {
//     io.field("cell", c.cell_id);
//     io.field("peak_users", c.peak_users);
//   }
//
// Writer walks the list to build an object and Reader walks the same list to
// fill a record, so keys, key order and codecs cannot drift apart. Codecs:
// bool, integers, enums (as integers), double, std::string, std::vector,
// std::pair (as [first, second]), sim::Duration and sim::TimePoint (as µs),
// json::named enums (as names) and records (as objects). Reader is where
// integers are narrowed: a value that is not an integer, is negative for an
// unsigned member or does not fit the member type throws std::runtime_error
// naming the keys that led to it. Keys a list does not name are ignored.
#pragma once

#include <array>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "json/json.hpp"
#include "sim/time.hpp"

namespace rpv::json {

// An enum stored as its name in a table where names[i] names value i.
template <class E, std::size_t N>
struct Named {
  E& value;
  const std::array<std::string_view, N>& names;
};
template <class E, std::size_t N>
Named<E, N> named(E& value, const std::array<std::string_view, N>& names) {
  return {value, names};
}

namespace detail {
template <class T> inline constexpr bool kIsVector = false;
template <class T> inline constexpr bool kIsVector<std::vector<T>> = true;
template <class T> inline constexpr bool kIsPair = false;
template <class A, class B> inline constexpr bool kIsPair<std::pair<A, B>> = true;
template <class T> inline constexpr bool kIsNamed = false;
template <class E, std::size_t N> inline constexpr bool kIsNamed<Named<E, N>> = true;
}  // namespace detail

class Writer {
 public:
  static constexpr bool kReading = false;

  explicit Writer(Value& out) : out_{&out} {}

  template <class T>
  void field(std::string_view key, const T& x) {
    out_->set(std::string{key}, encode(x));
  }

  // A nested object whose body writes members of the enclosing record.
  template <class Body>
  void object(std::string_view key, Body&& body) {
    Value sub = Value::object();
    Writer w{sub};
    body(w);
    out_->set(std::string{key}, std::move(sub));
  }

  // The whole record is stored as this one value instead of an object.
  template <class T>
  void value(const T& x) {
    *out_ = encode(x);
  }

  // Rows stored as two parallel arrays, one per column.
  template <class Row, class A, class B>
  void columns(const std::vector<Row>& rows, std::string_view key_a, A Row::*a,
               std::string_view key_b, B Row::*b) {
    Value col_a = Value::array();
    Value col_b = Value::array();
    col_a.reserve(rows.size());
    col_b.reserve(rows.size());
    for (const Row& r : rows) {
      col_a.push_back(encode(r.*a));
      col_b.push_back(encode(r.*b));
    }
    out_->set(std::string{key_a}, std::move(col_a));
    out_->set(std::string{key_b}, std::move(col_b));
  }

  template <class T>
  [[nodiscard]] static Value encode(const T& x) {
    if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, double> ||
                  std::is_same_v<T, std::string>) {
      return Value{x};
    } else if constexpr (std::is_enum_v<T>) {
      return encode(static_cast<std::underlying_type_t<T>>(x));
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      return Value{static_cast<std::int64_t>(x)};
    } else if constexpr (std::is_integral_v<T>) {
      return Value{static_cast<std::uint64_t>(x)};
    } else if constexpr (std::is_same_v<T, sim::Duration> ||
                         std::is_same_v<T, sim::TimePoint>) {
      return Value{x.us()};
    } else if constexpr (detail::kIsNamed<T>) {
      return Value{std::string{x.names[static_cast<std::size_t>(x.value)]}};
    } else if constexpr (detail::kIsVector<T>) {
      Value a = Value::array();
      a.reserve(x.size());
      for (const auto& e : x) a.push_back(encode(e));
      return a;
    } else if constexpr (detail::kIsPair<T>) {
      Value a = Value::array();
      a.reserve(2);
      a.push_back(encode(x.first));
      a.push_back(encode(x.second));
      return a;
    } else {
      Value o = Value::object();
      Writer w{o};
      fields(w, const_cast<T&>(x));  // a Writer only reads the members
      return o;
    }
  }

 private:
  Value* out_;
};

class Reader {
 public:
  static constexpr bool kReading = true;

  explicit Reader(const Value& in) : in_{&in} {}

  template <class T>
  void field(std::string_view key, T&& x) const {
    keyed(key, [&] { decode(member(key), x); });
  }

  template <class Body>
  void object(std::string_view key, Body&& body) const {
    keyed(key, [&] {
      Reader r{member(key)};
      body(r);
    });
  }

  template <class T>
  void value(T& x) const {
    decode(*in_, x);
  }

  template <class Row, class A, class B>
  void columns(std::vector<Row>& rows, std::string_view key_a, A Row::*a,
               std::string_view key_b, B Row::*b) const {
    const auto& col_a = member(key_a).items();
    const auto& col_b = member(key_b).items();
    if (col_a.size() != col_b.size()) {
      throw std::runtime_error("json: columns '" + std::string{key_a} +
                               "' and '" + std::string{key_b} +
                               "' differ in length");
    }
    rows.resize(col_a.size());
    for (std::size_t i = 0; i < rows.size(); ++i) {
      decode(col_a[i], rows[i].*a);
      decode(col_b[i], rows[i].*b);
    }
  }

  [[nodiscard]] bool has(std::string_view key) const {
    return in_->find(key) != nullptr;
  }

  template <class T>
  static void decode(const Value& v, T& x) {
    if constexpr (std::is_same_v<T, bool>) {
      x = v.as_bool();
    } else if constexpr (std::is_same_v<T, double>) {
      x = v.as_double();
    } else if constexpr (std::is_same_v<T, std::string>) {
      x = v.as_string();
    } else if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> u{};
      decode(v, u);
      x = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
      x = narrow<T>(v.as_i64());
    } else if constexpr (std::is_integral_v<T>) {
      x = narrow<T>(v.as_u64());
    } else if constexpr (std::is_same_v<T, sim::Duration>) {
      x = sim::Duration::micros(v.as_i64());
    } else if constexpr (std::is_same_v<T, sim::TimePoint>) {
      x = sim::TimePoint::from_us(v.as_i64());
    } else if constexpr (detail::kIsNamed<T>) {
      const std::string& name = v.as_string();
      std::size_t i = 0;
      while (i < x.names.size() && x.names[i] != name) ++i;
      if (i == x.names.size()) {
        throw std::runtime_error("json: unknown name '" + name + "'");
      }
      x.value = static_cast<std::remove_reference_t<decltype(x.value)>>(i);
    } else if constexpr (detail::kIsVector<T>) {
      const auto& items = v.items();
      x.resize(items.size());
      for (std::size_t i = 0; i < items.size(); ++i) decode(items[i], x[i]);
    } else if constexpr (detail::kIsPair<T>) {
      const auto& items = v.items();
      if (items.size() != 2) throw std::runtime_error("json: expected a pair");
      decode(items[0], x.first);
      decode(items[1], x.second);
    } else {
      Reader r{v};
      fields(r, x);
    }
  }

 private:
  template <class T, class I>
  [[nodiscard]] static T narrow(I i) {
    if (!std::in_range<T>(i)) {
      throw std::runtime_error("json: integer " + std::to_string(i) +
                               " does not fit the member type");
    }
    return static_cast<T>(i);
  }

  [[nodiscard]] const Value& member(std::string_view key) const {
    if (!in_->is_object()) throw std::runtime_error("json: expected an object");
    return in_->at(key);
  }

  // Runs `f`, prefixing any failure with the key it happened under.
  template <class F>
  static void keyed(std::string_view key, F&& f) {
    try {
      f();
    } catch (const std::exception& e) {
      throw std::runtime_error(std::string{key} + ": " + e.what());
    }
  }

  const Value* in_;
};

// Writes `"schema": version`; on read, any other version throws
// "<what>: unsupported schema version N".
template <class IO>
void schema(IO& io, std::int64_t version, std::string_view what) {
  std::int64_t stored = version;
  io.field("schema", stored);
  if (stored != version) {
    throw std::runtime_error(std::string{what} +
                             ": unsupported schema version " +
                             std::to_string(stored));
  }
}

}  // namespace rpv::json

#include "json/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <type_traits>

namespace rpv::json {

Value::Value(const Value& other) : kind_{other.kind_}, p_{other.p_} {
  switch (kind_) {
    case Kind::kString: p_.s = new std::string(*other.p_.s); break;
    case Kind::kArray: p_.a = new Array(*other.p_.a); break;
    case Kind::kObject: p_.o = new Object(*other.p_.o); break;
    default: break;
  }
}

Value& Value::operator=(const Value& other) {
  if (this != &other) *this = Value{other};
  return *this;
}

void Value::release() noexcept {
  switch (kind_) {
    case Kind::kString: delete p_.s; break;
    case Kind::kArray: delete p_.a; break;
    case Kind::kObject: delete p_.o; break;
    default: break;
  }
}

Value Value::array() {
  Value v;
  v.p_.a = new Array;
  v.kind_ = Kind::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.p_.o = new Object;
  v.kind_ = Kind::kObject;
  return v;
}

namespace {
[[noreturn]] void type_error(const char* want, Value::Kind got) {
  throw std::runtime_error(std::string{"json: expected "} + want +
                           ", got kind " + std::to_string(static_cast<int>(got)));
}

[[noreturn]] void not_representable(const std::string& value, const char* want) {
  throw std::runtime_error("json: " + value + " is not " + want);
}

// The integral double `d` as T; a fraction, or a value outside T, throws
// (casting such a double is undefined behaviour).
template <class T>
T integral_double(double d) {
  constexpr double kTwo63 = 9223372036854775808.0;  // exact as a double
  constexpr bool kSigned = std::is_signed_v<T>;
  const double lo = kSigned ? -kTwo63 : 0.0;
  const double hi = kSigned ? kTwo63 : 2.0 * kTwo63;
  if (!(d >= lo && d < hi) || std::trunc(d) != d) {
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof buf, d);
    not_representable(std::string(buf, res.ptr),
                      kSigned ? "an int64" : "a uint64");
  }
  return static_cast<T>(d);
}
}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::kBool) type_error("bool", kind_);
  return p_.b;
}

std::int64_t Value::as_i64() const {
  switch (kind_) {
    case Kind::kInt: return p_.i;
    case Kind::kUint:
      if (p_.u > static_cast<std::uint64_t>(
                     std::numeric_limits<std::int64_t>::max())) {
        not_representable(std::to_string(p_.u), "an int64");
      }
      return static_cast<std::int64_t>(p_.u);
    case Kind::kDouble: return integral_double<std::int64_t>(p_.d);
    default: type_error("number", kind_);
  }
}

std::uint64_t Value::as_u64() const {
  switch (kind_) {
    case Kind::kInt:
      if (p_.i < 0) not_representable(std::to_string(p_.i), "a uint64");
      return static_cast<std::uint64_t>(p_.i);
    case Kind::kUint: return p_.u;
    case Kind::kDouble: return integral_double<std::uint64_t>(p_.d);
    default: type_error("number", kind_);
  }
}

double Value::as_double() const {
  switch (kind_) {
    case Kind::kInt: return static_cast<double>(p_.i);
    case Kind::kUint: return static_cast<double>(p_.u);
    case Kind::kDouble: return p_.d;
    default: type_error("number", kind_);
  }
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) type_error("string", kind_);
  return *p_.s;
}

Value& Value::push_back(Value v) {
  if (kind_ == Kind::kNull) *this = array();
  if (kind_ != Kind::kArray) type_error("array", kind_);
  p_.a->push_back(std::move(v));
  return *this;
}

Value& Value::reserve(std::size_t n) {
  if (kind_ == Kind::kNull) *this = array();
  if (kind_ != Kind::kArray) type_error("array", kind_);
  p_.a->reserve(n);
  return *this;
}

const std::vector<Value>& Value::items() const {
  if (kind_ != Kind::kArray) type_error("array", kind_);
  return *p_.a;
}

Value& Value::set(std::string key, Value v) {
  if (kind_ == Kind::kNull) *this = object();
  if (kind_ != Kind::kObject) type_error("object", kind_);
  for (auto& m : *p_.o) {
    if (m.key == key) {
      m.value = std::move(v);
      return *this;
    }
  }
  p_.o->push_back(Member{std::move(key), std::move(v)});
  return *this;
}

const Value* Value::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& m : *p_.o) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr) {
    throw std::runtime_error("json: missing key '" + std::string{key} + "'");
  }
  return *v;
}

const std::vector<Member>& Value::members() const {
  if (kind_ != Kind::kObject) type_error("object", kind_);
  return *p_.o;
}

std::size_t Value::size() const {
  switch (kind_) {
    case Kind::kArray: return p_.a->size();
    case Kind::kObject: return p_.o->size();
    case Kind::kString: return p_.s->size();
    default: return 0;
  }
}

// --- Serialization ---

namespace {

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void append_double(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no inf/nan; loaders read null as NaN
    return;
  }
  char buf[32];
  // Shortest representation that round-trips the exact bits.
  const auto res = std::to_chars(buf, buf + sizeof buf, d);
  out.append(buf, res.ptr);
}

template <class Int>
void append_integer(std::string& out, Int i) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, i);
  out.append(buf, res.ptr);
}

void append_newline_indent(std::string& out, int indent, int depth) {
  out += '\n';
  out.append(static_cast<std::size_t>(indent) * depth, ' ');
}

}  // namespace

void Value::write(std::string& out, int indent, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kBool: out += p_.b ? "true" : "false"; return;
    case Kind::kInt: append_integer(out, p_.i); return;
    case Kind::kUint: append_integer(out, p_.u); return;
    case Kind::kDouble: append_double(out, p_.d); return;
    case Kind::kString: append_escaped(out, *p_.s); return;
    case Kind::kArray: {
      const Array& items = *p_.a;
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0) out += indent >= 0 ? ", " : ",";
        items[i].write(out, indent, depth);
      }
      out += ']';
      return;
    }
    case Kind::kObject: {
      const Object& members = *p_.o;
      out += '{';
      for (std::size_t i = 0; i < members.size(); ++i) {
        if (i > 0) out += ',';
        if (indent >= 0) {
          append_newline_indent(out, indent, depth + 1);
        }
        append_escaped(out, members[i].key);
        out += indent >= 0 ? ": " : ":";
        members[i].value.write(out, indent, depth + 1);
      }
      if (indent >= 0 && !members.empty()) {
        append_newline_indent(out, indent, depth);
      }
      out += '}';
      return;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent);
  return out;
}

void Value::dump_to(std::string& out, int indent) const {
  write(out, indent, 0);
}

// --- Parsing ---

// Recursive descent over the whole text. Not in an unnamed namespace: Value
// befriends it so members append straight into the object's vector.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_{text} {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw std::runtime_error("json: " + why + " at offset " +
                             std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string{"expected '"} + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  // Consumes the opening bracket of an array or object, one level deeper.
  void open(char bracket) {
    if (++depth_ > kMaxDepth) {
      fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
    }
    expect(bracket);
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value{parse_string()};
      case 't':
        if (consume_literal("true")) return Value{true};
        fail("bad literal");
      case 'f':
        if (consume_literal("false")) return Value{false};
        fail("bad literal");
      case 'n':
        if (consume_literal("null")) return Value{};
        fail("bad literal");
      default: return parse_number();
    }
  }

  Value parse_object() {
    open('{');
    Value obj = Value::object();
    Value::Object& members = *obj.p_.o;
    skip_ws();
    if (peek() != '}') {
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        members.push_back({std::move(key), parse_value()});
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect('}');
    reject_duplicate_keys(members);
    --depth_;
    return obj;
  }

  // Our writers never repeat a key (set() overwrites), so a repeat marks a
  // foreign or corrupt document. Sorting keeps a hostile object O(n log n).
  void reject_duplicate_keys(const Value::Object& members) {
    keys_.clear();
    for (const Member& m : members) keys_.push_back(m.key);
    std::sort(keys_.begin(), keys_.end());
    const auto it = std::adjacent_find(keys_.begin(), keys_.end());
    if (it != keys_.end()) fail("duplicate key '" + std::string{*it} + "'");
  }

  Value parse_array() {
    open('[');
    Value arr = Value::array();
    Value::Array& items = *arr.p_.a;
    skip_ws();
    if (peek() != ']') {
      while (true) {
        items.push_back(parse_value());
        skip_ws();
        if (peek() != ',') break;
        ++pos_;
      }
    }
    expect(']');
    --depth_;
    return arr;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          unsigned cp = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            cp <<= 4;
            if (h >= '0' && h <= '9') cp |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') cp |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') cp |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape");
          }
          // Encode the BMP code point as UTF-8 (we never emit surrogates).
          if (cp < 0x80) {
            out += static_cast<char>(cp);
          } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
          }
          break;
        }
        default: fail("bad escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    bool is_integer = true;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_integer = false;
        ++pos_;
      } else {
        break;
      }
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty() || tok == "-") fail("bad number");
    // "-0" stays the double -0.0: the integer kinds have no negative zero,
    // and dumping -0.0 writes "-0", which must parse back to itself.
    if (is_integer && tok != "-0") {
      if (tok[0] == '-') {
        std::int64_t i = 0;
        const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), i);
        if (r.ec == std::errc{} && r.ptr == tok.data() + tok.size()) return Value{i};
      } else {
        std::uint64_t u = 0;
        const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), u);
        if (r.ec == std::errc{} && r.ptr == tok.data() + tok.size()) {
          // Keep small non-negative integers as kInt so round trips are
          // kind-stable for the common case; kUint covers the top bit.
          if (u <= static_cast<std::uint64_t>(
                       std::numeric_limits<std::int64_t>::max())) {
            return Value{static_cast<std::int64_t>(u)};
          }
          return Value{u};
        }
      }
      // Overflowed 64 bits: fall through to double.
    }
    double d = 0.0;
    const auto r = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (r.ec != std::errc{} || r.ptr != tok.data() + tok.size()) fail("bad number");
    return Value{d};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
  std::vector<std::string_view> keys_;  // reused by reject_duplicate_keys
};

Value parse(std::string_view text) { return Parser{text}.parse_document(); }

std::optional<Value> try_parse(std::string_view text) {
  try {
    return parse(text);
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

bool write_file(const std::string& path, const Value& v, int indent) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  if (!out) return false;
  const std::string text = v.dump(indent);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.put('\n');
  return static_cast<bool>(out);
}

std::optional<std::string> read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary | std::ios::ate};
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string text(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(text.data(), size);
  text.resize(static_cast<std::size_t>(in.gcount()));
  return text;
}

}  // namespace rpv::json

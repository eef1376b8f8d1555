// Input validation that survives Release builds.
//
// Constructors across the library used to guard their inputs with bare
// `assert`, which compiles out under NDEBUG and silently accepts invalid
// configs. `rpv::validate` throws std::invalid_argument with a readable
// message instead, so a bad Scenario/SessionConfig fails loudly at setup
// time rather than corrupting a multi-minute simulation.
#pragma once

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace rpv {

// A literal message stays a view until it is thrown, so a check on a
// per-packet path costs no string construction.
inline void validate(bool condition, std::string_view message) {
  if (!condition) throw std::invalid_argument(std::string(message));
}

// Whole-string value of a number flag, at least `min`: no trailing junk
// ("3e6" or "2x" for a count), no sign ("-0" included; std::stoull wraps
// "-5" to 2^64 - 5), nothing out of range or non-finite. Throws
// std::invalid_argument naming the flag, so a CLI exits with its usage text
// instead of running a size nobody asked for.
template <class T>
[[nodiscard]] T parse_number(const std::string& flag, const std::string& text,
                             T min) {
  T value{};
  const char* end = text.data() + text.size();
  const auto r = std::from_chars(text.data(), end, value);
  validate(!text.empty() && text[0] != '-' && r.ec == std::errc{} &&
               r.ptr == end && value >= min &&
               std::isfinite(static_cast<double>(value)),
           "bad value for " + flag + ": '" + text + "'");
  return value;
}

}  // namespace rpv

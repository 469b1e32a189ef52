// Strict parsing of positive integers: the integer environment knobs
// (LUMICHAT_THREADS, LUMICHAT_SERVICE_CAPACITY) and integer command-line
// arguments.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <optional>

namespace lumichat::common {

/// `text` as a positive integer, or std::nullopt when it is anything but a
/// whole decimal number in [1, SIZE_MAX]: signs, spaces, trailing
/// characters ("4x", "1e3"), zero and values that would overflow are all
/// rejected.
[[nodiscard]] inline std::optional<std::size_t> parse_positive_integer(
    const char* text) {
  const char* end = text + std::strlen(text);
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc{} || ptr != end || value == 0) return std::nullopt;
  return value;
}

/// The environment variable `name` parsed by parse_positive_integer, or
/// std::nullopt when it is unset or malformed.
[[nodiscard]] inline std::optional<std::size_t> env_positive_integer(
    const char* name) {
  const char* text = std::getenv(name);
  if (text == nullptr) return std::nullopt;
  return parse_positive_integer(text);
}

}  // namespace lumichat::common

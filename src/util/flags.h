// Strict numeric command-line flag values, shared by the tools and benches.
#pragma once

#include <charconv>
#include <string_view>
#include <system_error>

namespace vcl {

// A numeric flag value must be one whole token (no sign on unsigned
// flags, no trailing bytes), finite and inside [lo, hi]; anything else is a
// usage error, never an exception, a wrap-around or a NaN-length run.
template <typename T>
bool parse_flag(const char* text, T lo, T hi, T& out) {
  if (text == nullptr) return false;
  const std::string_view s(text);
  T v{};
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || end != s.data() + s.size()) return false;
  if (!(v >= lo && v <= hi)) return false;  // also rejects NaN
  out = v;
  return true;
}

}  // namespace vcl

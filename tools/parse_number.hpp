#pragma once

// Strict parsing of the tools' numeric flag values.

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace smp::tools {

/// The whole of `v` parsed as a decimal T, or nullopt: "", "4x", "banana",
/// "1e3" (for an integral T), "-1" (for an unsigned T), an out-of-range
/// value and a non-finite double never parse as a prefix or wrap around.
template <class T>
[[nodiscard]] std::optional<T> parse_number(std::string_view v) {
  T x{};
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, x);
  bool ok = ec == std::errc{} && ptr == end;
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(x);
  if (!ok) return std::nullopt;
  return x;
}

/// The whole of `v` parsed as a decimal T, or usage("malformed number for
/// FLAG: 'V'"), where `usage` is the tool's exit-2 reporter and does not
/// return.
template <class T, class Usage>
[[nodiscard]] T flag_number(const std::string& flag, const std::string& v,
                            Usage usage) {
  const std::optional<T> x = parse_number<T>(v);
  if (!x) usage(("malformed number for " + flag + ": '" + v + "'").c_str());
  return *x;
}

}  // namespace smp::tools

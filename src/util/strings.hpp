// Small string formatting helpers shared across stpx.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace stpx {

/// Join the elements of `parts` with `sep`.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Render an integer vector like "[3, 1, 4]".
std::string brackets(const std::vector<int>& values);

/// Left-pad `s` to `width` with spaces (no-op if already wider).
std::string pad_left(const std::string& s, std::size_t width);

/// Right-pad `s` to `width` with spaces (no-op if already wider).
std::string pad_right(const std::string& s, std::size_t width);

/// Fixed-point rendering of a double with `digits` decimal places.
std::string fixed(double value, int digits);

/// `text` read whole as a decimal integer of type T: no spaces, no '+', a
/// '-' only for signed T, nothing trailing, and within T's range.  Nullopt
/// for anything else.
template <class T>
std::optional<T> parse_int(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace stpx

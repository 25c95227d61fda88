// Strict parsing of numeric command-line values, shared by pab_serve and
// pabctl: a value is accepted only when the whole string is the number, so a
// typo is a usage error instead of a silently different run.
#pragma once

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <string>

namespace pab::cli {

// A whole decimal count no larger than `max`; strtoull alone would read
// "-1" as 18446744073709551615 and "4x" as 4.
inline bool parse_count(const char* text, std::uint64_t max,
                        std::uint64_t& count) {
  if (*text < '0' || *text > '9') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0' || value > max) return false;
  count = value;
  return true;
}

inline constexpr std::uint64_t kAnyCount =
    std::numeric_limits<std::uint64_t>::max();

// A finite decimal number that is the whole of `text`.
inline bool parse_decimal(const std::string& text, double& value) {
  errno = 0;
  char* end = nullptr;
  value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0' && errno == 0 &&
         std::isfinite(value);
}

}  // namespace pab::cli

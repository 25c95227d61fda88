// Lightweight status/expected types used at public API boundaries.
//
// The simulator prefers returning errors over throwing in hot paths (decoders
// run millions of times in Monte-Carlo benches).  `Expected<T>` is a minimal
// value-or-error carrier; exceptional conditions that indicate programmer
// error (precondition violations) still throw std::invalid_argument.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

namespace pab {

enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,
  kDecodeFailure,     // packet could not be recovered (noise, collision)
  kCrcMismatch,       // packet framed but failed checksum
  kNoPreamble,        // no packet detected in the capture
  kInsufficientPower, // node never reached the power-up threshold
  kTimeout,
  kNotPoweredUp,
  kBusError,
};

[[nodiscard]] constexpr const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOk: return "ok";
    case ErrorCode::kInvalidArgument: return "invalid argument";
    case ErrorCode::kDecodeFailure: return "decode failure";
    case ErrorCode::kCrcMismatch: return "crc mismatch";
    case ErrorCode::kNoPreamble: return "no preamble detected";
    case ErrorCode::kInsufficientPower: return "insufficient harvested power";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kNotPoweredUp: return "node not powered up";
    case ErrorCode::kBusError: return "peripheral bus error";
  }
  return "unknown";
}

struct Error {
  ErrorCode code = ErrorCode::kOk;
  std::string detail;

  [[nodiscard]] std::string message() const {
    std::string m = to_string(code);
    if (!detail.empty()) m += ": " + detail;
    return m;
  }
};

template <typename T>
class [[nodiscard]] Expected {
 public:
  Expected(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Error error) : error_(std::move(error)) {}  // NOLINT(google-explicit-constructor)
  Expected(ErrorCode code, std::string detail = {})
      : error_(Error{code, std::move(detail)}) {}

  [[nodiscard]] bool ok() const { return value_.has_value(); }
  explicit operator bool() const { return ok(); }

  [[nodiscard]] const T& value() const& {
    if (!ok()) throw std::runtime_error("Expected::value on error: " + error_.message());
    return *value_;
  }
  [[nodiscard]] T& value() & {
    if (!ok()) throw std::runtime_error("Expected::value on error: " + error_.message());
    return *value_;
  }
  [[nodiscard]] T&& value() && {
    if (!ok()) throw std::runtime_error("Expected::value on error: " + error_.message());
    return std::move(*value_);
  }

  [[nodiscard]] const Error& error() const {
    static const Error kNone{};
    return ok() ? kNone : error_;
  }

  [[nodiscard]] ErrorCode code() const {
    return ok() ? ErrorCode::kOk : error_.code;
  }

 private:
  std::optional<T> value_;
  Error error_;
};

// Throws std::invalid_argument when `condition` is false.  Used to validate
// public-API preconditions.
inline void require(bool condition, const char* what) {
  if (!condition) throw std::invalid_argument(what);
}

}  // namespace pab

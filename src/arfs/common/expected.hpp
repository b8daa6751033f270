// Minimal expected-value type (C++23 std::expected is not available under the
// C++20 toolchain used here).
//
// Used for operations whose failure is an ordinary domain outcome the caller
// must handle — e.g. reading a stable-storage variable that a failed
// processor never committed — as opposed to contract violations, which throw.
#pragma once

#include <string>
#include <utility>
#include <variant>

#include "arfs/common/check.hpp"

namespace arfs {

/// Error payload carried by Expected.
struct Unexpected {
  std::string message;
};

[[nodiscard]] inline Unexpected unexpected(std::string message) {
  return Unexpected{std::move(message)};
}

/// Holds either a value of type T or an error message.
template <typename T>
class Expected {
 public:
  Expected(T value) : data_(std::move(value)) {}  // NOLINT(google-explicit-constructor)
  Expected(Unexpected err) : data_(std::move(err)) {}  // NOLINT(google-explicit-constructor)

  [[nodiscard]] bool has_value() const {
    return std::holds_alternative<T>(data_);
  }
  explicit operator bool() const { return has_value(); }

  /// Precondition: has_value(). The violation message is built only when
  /// the check fails, so a successful call allocates nothing.
  [[nodiscard]] const T& value() const {
    if (!has_value()) require(false, "Expected::value() on error: " + error());
    return std::get<T>(data_);
  }
  [[nodiscard]] T& value() {
    if (!has_value()) require(false, "Expected::value() on error: " + error());
    return std::get<T>(data_);
  }

  /// Precondition: !has_value().
  [[nodiscard]] const std::string& error() const {
    static const std::string kNone = "(no error)";
    if (has_value()) return kNone;
    return std::get<Unexpected>(data_).message;
  }

  [[nodiscard]] T value_or(T fallback) const {
    return has_value() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Unexpected> data_;
};

}  // namespace arfs

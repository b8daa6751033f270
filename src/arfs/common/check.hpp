// Contract checking.
//
// Following the Core Guidelines (I.6/E.12), interface preconditions are
// expressed as explicit checks that throw on violation. A violated contract
// in this library is always a programming error in the caller, never an
// expected runtime condition, so an exception type distinct from domain
// errors is used.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>
#include <string_view>

namespace arfs {

/// Thrown when a caller violates a documented precondition or when an
/// internal invariant is broken.
class ContractViolation : public std::logic_error {
 public:
  explicit ContractViolation(const std::string& what)
      : std::logic_error(what) {}
};

/// Thrown for domain errors: malformed reconfiguration specifications,
/// unknown ids, operations on failed components, and similar.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Throws the ContractViolation of a failed check: "<file>:<line>: " then
/// `kind` then `message`. Out of line and cold, so a passing check inlines
/// to one predicted branch and builds no message.
[[noreturn, gnu::cold, gnu::noinline]] void throw_contract_violation(
    std::string_view kind, std::string_view message,
    const std::source_location& loc);

}  // namespace detail

/// Checks a precondition; throws ContractViolation with location info. The
/// message is a view and is only copied into a string on failure, so a
/// passing check allocates nothing.
inline void require(bool condition, std::string_view message,
                    std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_contract_violation({}, message, loc);
  }
}

/// Checks an internal invariant; throws ContractViolation with location info.
/// Like require(), allocates only on failure.
inline void ensure(bool condition, std::string_view message,
                   std::source_location loc = std::source_location::current()) {
  if (!condition) [[unlikely]] {
    detail::throw_contract_violation("invariant broken: ", message, loc);
  }
}

}  // namespace arfs

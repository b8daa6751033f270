#include "arfs/common/check.hpp"

namespace arfs::detail {

void throw_contract_violation(std::string_view kind, std::string_view message,
                              const std::source_location& loc) {
  std::string what(loc.file_name());
  what += ':';
  what += std::to_string(loc.line());
  what += ": ";
  what += kind;
  what += message;
  throw ContractViolation(what);
}

}  // namespace arfs::detail

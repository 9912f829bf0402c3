#include "util/id_generator.h"

#include "util/strings.h"

namespace slim {

void IdGenerator::ObserveExisting(std::string_view id) {
  if (std::optional<uint64_t> n = NumberOf(id)) ReserveAtLeast(*n);
}

std::optional<uint64_t> IdGenerator::NumberOf(std::string_view id) const {
  if (!StartsWith(id, prefix_)) return std::nullopt;
  long long n = 0;
  if (!ParseInt(id.substr(prefix_.size()), &n) || n < 0) return std::nullopt;
  return static_cast<uint64_t>(n);
}

}  // namespace slim

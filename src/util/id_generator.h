#ifndef SLIM_UTIL_ID_GENERATOR_H_
#define SLIM_UTIL_ID_GENERATOR_H_

/// \file id_generator.h
/// \brief Deterministic unique-identifier generation.
///
/// The paper's MarkHandle/Mark linkage and the TRIM resources both need
/// unique identifiers. We generate ids deterministically ("<prefix><n>") so
/// that tests and persistence round trips are reproducible; uniqueness is
/// per-generator.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace slim {

/// \brief Produces "<prefix><counter>" ids, monotonically increasing.
class IdGenerator {
 public:
  /// \param prefix Prepended to every generated id (e.g. "mark").
  explicit IdGenerator(std::string prefix) : prefix_(std::move(prefix)) {}

  /// Returns the next unique id.
  std::string Next() { return prefix_ + std::to_string(next_++); }

  /// Informs the generator that `numeric_suffix` is in use, so future ids
  /// start above it. Used when loading persisted data.
  void ReserveAtLeast(uint64_t numeric_suffix) {
    if (numeric_suffix >= next_) next_ = numeric_suffix + 1;
  }

  /// If `id` is "<prefix><digits>", reserves past it (for reload support).
  void ObserveExisting(std::string_view id);

  /// The n of an id "<prefix><n>"; nullopt for any other id.
  std::optional<uint64_t> NumberOf(std::string_view id) const;

  /// The counter value the next id will use.
  uint64_t peek() const { return next_; }

 private:
  std::string prefix_;
  uint64_t next_ = 1;
};

}  // namespace slim

#endif  // SLIM_UTIL_ID_GENERATOR_H_

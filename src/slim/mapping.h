#ifndef SLIM_SLIM_MAPPING_H_
#define SLIM_SLIM_MAPPING_H_

/// \file mapping.h
/// \brief Mappings between superimposed schemas/models (paper §4.3: "we can
/// leverage the generic representation directly, by defining mappings
/// between superimposed models, including model-to-model, schema-to-schema
/// and even schema-to-model mappings").
///
/// A Mapping is a set of type rules; each rewrites an instance's type
/// resource and renames its properties. Because model, schema and instance
/// all live as triples, one mechanism covers all three mapping flavors —
/// the rules just target resources of the respective layer.

#include <optional>
#include <string>
#include <vector>

#include "trim/triple_store.h"
#include "util/result.h"

namespace slim::store {

/// \brief Renames one property within a type rule.
struct PropertyRule {
  std::string from;
  std::string to;
};

/// \brief Rewrites instances of one type.
struct TypeRule {
  std::string from_type;  ///< Source type resource.
  std::string to_type;    ///< Target type resource.
  std::vector<PropertyRule> properties;
  /// When true, properties without a rule are dropped rather than copied.
  bool drop_unmapped_properties = false;
};

/// \brief Counters describing what a mapping application did.
struct MappingStats {
  size_t instances_mapped = 0;
  size_t instances_copied = 0;   ///< Untyped-by-rule instances kept as-is.
  size_t instances_dropped = 0;  ///< Untyped-by-rule instances discarded.
  /// Statements added to the target; one it already holds is skipped and
  /// not counted.
  size_t triples_written = 0;
  size_t properties_dropped = 0;
};

/// \brief A schema-to-schema (or model-to-model) transformation.
class Mapping {
 public:
  explicit Mapping(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Adds a rule; AlreadyExists if `from_type` already has one.
  Status AddRule(TypeRule rule);

  /// When false (default) instances whose type has no rule are copied
  /// unchanged; when true they are dropped (and links to them dangle,
  /// visible to a later conformance check).
  void set_drop_unmapped_types(bool drop) { drop_unmapped_types_ = drop; }

  const std::vector<TypeRule>& rules() const { return rules_; }

  /// Applies the mapping: reads instance data from `source`, writes the
  /// transformed instances into `target` (which is not cleared — mappings
  /// compose by accumulation). Non-instance triples (model/schema layers)
  /// are not copied.
  Result<MappingStats> Apply(const trim::TripleStore& source,
                             trim::TripleStore* target) const;

 private:
  const TypeRule* FindRule(const std::string& type_resource) const;

  std::string name_;
  std::vector<TypeRule> rules_;
  bool drop_unmapped_types_ = false;
};

}  // namespace slim::store

#endif  // SLIM_SLIM_MAPPING_H_
